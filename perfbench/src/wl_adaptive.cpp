// adaptive-mixed-x8: single-thread Sessions with
// SchemePolicy::adaptive_predicted({dc, ac, acdc}) under the energy cost
// model over an in-memory `mixed` corpus stream, timed as four
// concurrent copies (the traced run uses one). The selector's features,
// ridge fits and probe trial encodes do most of the work here and almost
// none on any other workload.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <exception>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "api/session.hpp"
#include "bench.hpp"

namespace perfbench {
namespace {

using dbi::Scheme;
using dbi::StreamStats;

constexpr std::int64_t kBursts = 65536;
constexpr std::int64_t kSmallBursts = 64;
const dbi::Geometry kGeometry = dbi::Geometry::narrow(8, 8);
const std::vector<Scheme> kCandidates = {Scheme::kDc, Scheme::kAc,
                                         Scheme::kAcDc};

dbi::SessionSpec spec_for(dbi::SchemePolicy policy) {
  dbi::SessionSpec spec;
  spec.policy = std::move(policy);
  spec.geometry = kGeometry;
  return spec;
}

dbi::SchemePolicy predicted() {
  return dbi::SchemePolicy::adaptive_predicted(kCandidates,
                                               dbi::CostModel::kEnergy);
}

/// Concurrent copies of the timed loop, each with its own single-thread
/// Session on its own core. On the shared 4-vCPU VM this was tuned on,
/// neighbours slow one or two cores at a time by up to a third for
/// seconds to minutes; the best window over all copies is that of a core
/// left alone.
constexpr int kCopies = 4;

/// Pins the calling thread to the n-th CPU it may run on, so that each
/// copy measures one core; leaves it unpinned if there are fewer CPUs.
void pin_to_cpu(std::size_t n) {
  cpu_set_t allowed;
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || n-- != 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    (void)::pthread_setaffinity_np(::pthread_self(), sizeof one, &one);
    return;
  }
}

/// One copy's session and its record of the totals of every pass.
struct Copy {
  explicit Copy(const dbi::SessionSpec& spec) : session(spec) {}

  dbi::Session session;
  StreamStats first;
  bool have_first = false;
  std::int64_t ops = 0, failed = 0;

  StreamStats run(std::span<const std::uint8_t> in) {
    const auto source = dbi::make_packed_source(in);
    ops += 1;
    return session.run(*source);
  }
  void bulk(std::span<const std::uint8_t> in) {
    const StreamStats t = run(in);
    if (!have_first) {
      first = t;
      have_first = true;
    } else if (t != first) {
      failed += 1;
    }
  }
  void small(std::span<const std::uint8_t> in) {
    if (run(in).bursts != kSmallBursts) failed += 1;
  }
};

}  // namespace

Result run_adaptive(const Options& opt, SpanLog& log) {
  Result res;
  const auto setup = [&] {
    return corpus_bytes("mixed", kGeometry, kBursts, opt.seed);
  };
  std::vector<double> setup_s;
  const std::vector<std::uint8_t> bytes = timed_setup(setup_s, setup);
  for (int k = 1; k < kSetupRuns; ++k) (void)timed_setup(setup_s, setup);
  const auto bpb = static_cast<std::size_t>(kGeometry.bytes_per_burst());
  const std::span<const std::uint8_t> small_bytes(
      bytes.data(), static_cast<std::size_t>(kSmallBursts) * bpb);

  std::vector<std::unique_ptr<Copy>> copies;
  for (int k = 0; k < (opt.trace ? 1 : kCopies); ++k)
    copies.push_back(std::make_unique<Copy>(spec_for(predicted())));
  Copy& main_copy = *copies.front();
  dbi::Session& session = main_copy.session;
  const auto run_on = [](dbi::Session& s, std::span<const std::uint8_t> in) {
    const auto source = dbi::make_packed_source(in);
    return s.run(*source);
  };
  const auto bulk = [&] { main_copy.bulk(bytes); };

  if (!opt.trace) {
    std::vector<BatchRun> runs(copies.size());
    std::vector<std::exception_ptr> errors(copies.size());
    {
      std::vector<std::jthread> threads;  // joined at scope exit
      for (std::size_t i = 0; i < copies.size(); ++i)
        threads.emplace_back([&, i] {
          Copy& c = *copies[i];
          pin_to_cpu(i);
          try {
            // The first copy also times the set-up between its rounds.
            runs[i] = run_batch(
                opt.seconds, kBursts, [&] { c.bulk(bytes); },
                [&] { c.small(small_bytes); },
                [&] {
                  if (i == 0) (void)timed_setup(setup_s, setup);
                });
          } catch (...) {
            errors[i] = std::current_exception();
          }
        });
    }
    for (const auto& e : errors)
      if (e) std::rethrow_exception(e);
    report_batch(res, runs, kBursts);
  } else {
    bulk();
    const double S = opt.seconds;
    SpanLog::Writer& w = log.writer();
    res.set("obs.tracing_overhead", paired_ratio(S * 0.2, [&](bool traced) {
              Span s(traced ? &w : nullptr, "select.predicted");
              bulk();
              return kBursts;
            }));
    const double pred = op_mbursts(S * 0.15, kBursts, [&] {
      Span s(&w, "select.predicted");
      bulk();
    });
    const dbi::select::SelectionReport rep = session.report().selection;

    double floor = 0;
    for (const Scheme s : kCandidates) {
      dbi::Session fixed(spec_for(s));
      floor = std::max(floor, op_mbursts(S * 0.1, kBursts, [&] {
                         Span sp(&w, "api.fixed");
                         (void)run_on(fixed, bytes);
                       }));
    }
    dbi::Session exact(spec_for(dbi::SchemePolicy::adaptive_exact(
        kCandidates, dbi::CostModel::kEnergy)));
    StreamStats exact_totals;
    const double exact_rate = op_mbursts(S * 0.15, kBursts, [&] {
      Span s(&w, "select.exact");
      exact_totals = run_on(exact, bytes);
    });

    // Encodes per committed block: one per unprobed block, one per
    // candidate on probed blocks (every candidate's trial_blocks counts
    // the probes).
    double trials = 0;
    for (const auto& c : rep.candidates)
      trials += static_cast<double>(c.trial_blocks);
    const double probed = rep.candidates.empty()
                              ? 0.0
                              : static_cast<double>(
                                    rep.candidates.front().trial_blocks);
    const double blocks = static_cast<double>(std::max<std::int64_t>(
        rep.blocks, 1));
    res.set("select.fixed_floor_mbursts_s", floor);
    res.set("select.exact_mbursts_s", exact_rate);
    res.set("select.overhead_x", floor / pred);
    res.set("select.trial_encodes_per_block",
            (static_cast<double>(rep.blocks) - probed + trials) / blocks);
    res.set("select.probe_accuracy", rep.accuracy());
    res.set("select.energy_vs_exact", interface_pj_per_burst(main_copy.first) /
                                          interface_pj_per_burst(exact_totals));
    res.detail("predicted_mbursts_s=" + std::to_string(pred) +
               " blocks=" + std::to_string(rep.blocks) +
               " probes=" + std::to_string(rep.probes));
  }

  // Reference check, outside the timed region: every timed pass of every
  // copy, and a fresh session's pass, give the same totals.
  if (opt.fault) main_copy.first.zeros += 1;
  bool repeat_ok = main_copy.have_first;
  for (const auto& c : copies) {
    res.attempted += c->ops;
    res.failed += c->failed;
    repeat_ok = repeat_ok && c->failed == 0 && c->have_first &&
                c->first == main_copy.first;
  }
  res.check("adaptive.repeat_identical", repeat_ok);
  {
    dbi::Session fresh(spec_for(predicted()));
    res.check("adaptive.fresh_session_identical",
              run_on(fresh, bytes) == main_copy.first &&
                  fresh.report().selection.bursts == kBursts);
  }

  res.set("interface_pj_per_burst",
          interface_pj_per_burst(main_copy.first));
  res.set("setup_s", median(setup_s));
  res.set("peak_rss_mb", peak_rss_mb());
  return res;
}

}  // namespace perfbench
