// serve-mixed-x8: a closed loop against an in-process serve::Server on
// a Unix socket (2 pool workers, AC, x8). Three client threads each hold
// one tenant connection with a pipeline window of 4; two tenants send
// 64-burst requests and one sends 4096-burst requests. Small requests
// are bound by framing, admission, DRR and sends, large ones by the
// engine. Latency is exact client-side time from submit_encode to its
// next_response, in nanoseconds.
#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "api/session.hpp"
#include "bench.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace perfbench {
namespace {

using dbi::Scheme;
using dbi::StreamStats;
using dbi::serve::Client;

constexpr const char* kSocket = "serve.sock";  // relative: short sun_path
/// Socket of the spare fleets started only to time the set-up.
constexpr const char* kSetupSocket = "setup.sock";
constexpr int kServerWorkers = 2;
constexpr std::size_t kWindow = 4;
constexpr std::int64_t kRingBursts = 65536;
/// Traced loops record the client calls of every Nth request.
constexpr std::int64_t kSpanStride = 16;
/// Fewest samples above a p99 for the p99 to be reported.
constexpr std::size_t kMinBeyondP99 = 10;
const dbi::Geometry kGeometry = dbi::Geometry::narrow(8, 8);

struct TenantDef {
  const char* name;
  std::int64_t req_bursts;
  bool small;
};
constexpr TenantDef kTenants[] = {
    {"small-0", 64, true}, {"small-1", 64, true}, {"bulk-0", 4096, false}};
constexpr std::size_t kMaskTenant = 0;

/// One tenant's connection and everything its client thread accumulates
/// across loops. `next_q` runs on across loops so the served stream is
/// one continuous pass over the ring.
struct Tenant {
  const TenantDef* def = nullptr;
  std::vector<std::uint8_t> ring;
  std::unique_ptr<Client> client;
  std::int64_t next_q = 0;
  std::vector<std::uint64_t> masks;  ///< first ring revolution, in order

  /// Latency samples, kept until the caller clears them (one copy only:
  /// the run's peak RSS should not depend on how many requests it made).
  std::vector<std::int64_t> lat_ns;
  // Per-loop tallies (reset by run_loop).
  std::int64_t acked_bursts = 0, requests = 0, busy = 0;
};

struct LoopResult {
  double mbursts = 0;
  std::int64_t requests = 0, busy = 0;
};

enum class Class { kAll, kSmall, kBulk };

/// The tenants' latency samples of one request class, concatenated.
std::vector<std::int64_t> samples(const std::vector<Tenant>& tenants,
                                  Class cls) {
  std::vector<std::int64_t> out;
  for (const Tenant& t : tenants)
    if (cls == Class::kAll || (cls == Class::kSmall) == t.def->small)
      out.insert(out.end(), t.lat_ns.begin(), t.lat_ns.end());
  return out;
}

void clear_samples(std::vector<Tenant>& tenants) {
  for (Tenant& t : tenants) t.lat_ns.clear();
}

void client_loop(Tenant& t, const std::atomic<bool>& stop,
                 SpanLog::Writer* w) {
  const auto bpb = static_cast<std::size_t>(kGeometry.bytes_per_burst());
  const std::int64_t req = t.def->req_bursts;
  const std::int64_t ring_reqs = kRingBursts / req;
  struct InFlight {
    std::uint32_t seq;
    std::int64_t q;
    Clock::time_point sent;
  };
  std::deque<InFlight> inflight;
  const auto submit = [&] {
    const std::int64_t q = t.next_q++;
    const auto slice = std::span<const std::uint8_t>(t.ring).subspan(
        static_cast<std::size_t>((q % ring_reqs) * req) * bpb,
        static_cast<std::size_t>(req) * bpb);
    Span s(q % kSpanStride == 0 ? w : nullptr, "serve.submit_encode");
    const auto sent = Clock::now();
    const std::uint32_t seq =
        t.client->submit_encode(slice, static_cast<std::uint32_t>(req));
    inflight.push_back({seq, q, sent});
  };
  while (inflight.size() < kWindow) submit();
  while (!inflight.empty()) {
    const InFlight f = inflight.front();
    Client::Response r;
    {
      Span s(f.q % kSpanStride == 0 ? w : nullptr, "serve.next_response");
      r = t.client->next_response();
    }
    const auto done = Clock::now();
    inflight.pop_front();
    if (r.seq != f.seq)
      throw std::runtime_error("serve: response out of order");
    t.requests += 1;
    if (r.outcome == Client::Outcome::kBusy) {
      t.busy += 1;
    } else {
      t.lat_ns.push_back(
          std::chrono::duration_cast<std::chrono::nanoseconds>(done - f.sent)
              .count());
      t.acked_bursts += r.ack.burst_count;
      if (t.def == &kTenants[kMaskTenant] && f.q < ring_reqs)
        t.masks.insert(t.masks.end(), r.ack.masks.begin(), r.ack.masks.end());
    }
    if (!stop.load(std::memory_order_relaxed)) submit();
  }
}

/// Runs the given tenants' client threads for `seconds`, then drains.
LoopResult run_loop(std::vector<Tenant>& tenants, bool with_bulk,
                    double seconds, SpanLog* log) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(tenants.size());
  for (Tenant& t : tenants) {
    t.acked_bursts = t.requests = t.busy = 0;
  }
  // Writers are taken on this thread: SpanLog::writer() is not meant to
  // race with recording.
  std::vector<SpanLog::Writer*> writers(tenants.size(), nullptr);
  if (log)
    for (auto& wr : writers) wr = &log->writer();
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    if (!with_bulk && !tenants[i].def->small) continue;
    threads.emplace_back([&, i] {
      try {
        client_loop(tenants[i], stop, writers[i]);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (auto& th : threads) th.join();
  const double elapsed = seconds_since(t0);
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);

  LoopResult out;
  std::int64_t acked = 0;
  for (const Tenant& t : tenants) {
    acked += t.acked_bursts;
    out.requests += t.requests;
    out.busy += t.busy;
  }
  out.mbursts = static_cast<double>(acked) / elapsed / 1e6;
  return out;
}

struct Fleet {
  std::unique_ptr<dbi::serve::Server> server;
  std::vector<Tenant> tenants;
  std::vector<double> connect_ms;
};

void start_fleet(Fleet& f, std::uint64_t seed, const char* socket,
                 SpanLog::Writer* w) {
  dbi::serve::ServerOptions so;
  so.socket_path = socket;
  so.workers = kServerWorkers;
  so.max_queue_requests = 64;
  f.server = std::make_unique<dbi::serve::Server>(std::move(so));
  f.server->start();
  for (std::size_t i = 0; i < std::size(kTenants); ++i) {
    Tenant t;
    t.def = &kTenants[i];
    t.ring = corpus_bytes("float-tensor", kGeometry, kRingBursts,
                          seed * 10 + i);
    Client::Options co;
    co.socket_path = socket;
    co.tenant = kTenants[i].name;
    co.scheme = Scheme::kAc;
    co.geometry = kGeometry;
    const auto t0 = Clock::now();
    {
      Span s(w, "serve.connect");
      t.client = std::make_unique<Client>(Client::connect(co));
    }
    f.connect_ms.push_back(seconds_since(t0) * 1e3);
    f.tenants.push_back(std::move(t));
  }
}

double batch_bursts_mean(const dbi::obs::Snapshot& before,
                         const dbi::obs::Snapshot& after) {
  const auto* a = after.find("dbi_serve_batch_bursts");
  const auto* b = before.find("dbi_serve_batch_bursts");
  if (a == nullptr) return 0;
  const double count = static_cast<double>(a->count - (b ? b->count : 0));
  return count > 0 ? (a->sum - (b ? b->sum : 0)) / count : 0;
}

}  // namespace

Result run_serve(const Options& opt, SpanLog& log) {
  Result res;
  SpanLog::Writer* setup_w = opt.trace ? &log.writer() : nullptr;
  std::vector<double> setup_s;
  const auto setup = [&](const char* socket) {
    Fleet f;
    start_fleet(f, opt.seed, socket, setup_w);
    return f;
  };
  Fleet fleet = timed_setup(setup_s, [&] { return setup(kSocket); });
  // Spare fleets on their own socket repeat the set-up without touching
  // the measured fleet's connections and streams.
  const auto time_spare = [&] {
    const Fleet spare =
        timed_setup(setup_s, [&] { return setup(kSetupSocket); });
    fleet.connect_ms.insert(fleet.connect_ms.end(), spare.connect_ms.begin(),
                            spare.connect_ms.end());
  };
  for (int k = 1; k < kSetupRuns; ++k) time_spare();
  auto& tenants = fleet.tenants;

  // Warm-up loop: fills caches and starts every tenant's stream (the
  // masks check covers it, since the stream is continuous).
  LoopResult total = run_loop(tenants, true, std::min(0.5, opt.seconds * 0.05),
                              nullptr);

  if (!opt.trace) {
    // Room for one round's samples up front (about 20k small and 2k bulk
    // requests per tenant-second on 4 cores), so the vectors never
    // reallocate mid-round; untouched capacity costs no resident memory.
    const double round_s = opt.seconds / kWindows;
    for (Tenant& t : tenants)
      t.lat_ns.reserve(
          static_cast<std::size_t>(round_s * (t.def->small ? 4e4 : 4e3)));
    std::vector<double> rates;
    WindowedLatency all, small;
    for (int r = 0; r < kWindows; ++r) {
      clear_samples(tenants);
      const LoopResult l = run_loop(tenants, true, round_s, nullptr);
      rates.push_back(l.mbursts);
      all.add(samples(tenants, Class::kAll));
      small.add(samples(tenants, Class::kSmall));
      total.requests += l.requests;
      total.busy += l.busy;
      time_spare();
    }
    res.set("throughput_mbursts_s",
            *std::max_element(rates.begin(), rates.end()));
    res.set("latency_p50_us", all.best_p50_us());
    res.set("small_req_p50_us", small.best_p50_us());
    res.detail(all.describe("latency_") + " " + small.describe("small_"));
    res.detail(join_rates(rates));
  } else {
    const double S = opt.seconds;
    const auto before = fleet.server->metrics();
    clear_samples(tenants);
    const LoopResult mixed = run_loop(tenants, true, S * 0.25, nullptr);
    const auto after = fleet.server->metrics();
    const LatencySummary all_lat =
        summarize_latency(samples(tenants, Class::kAll));
    const LatencySummary small_lat =
        summarize_latency(samples(tenants, Class::kSmall));
    const LatencySummary bulk_lat =
        summarize_latency(samples(tenants, Class::kBulk));
    const LoopResult traced = run_loop(tenants, true, S * 0.2, &log);
    clear_samples(tenants);
    const LoopResult solo = run_loop(tenants, false, S * 0.2, nullptr);
    const LatencySummary solo_lat =
        summarize_latency(samples(tenants, Class::kSmall));
    for (const LoopResult* l : {&mixed, &traced, &solo}) {
      total.requests += l->requests;
      total.busy += l->busy;
    }

    // Offline: the same bytes through one Session pass on a pool of the
    // server's size.
    std::vector<std::uint8_t> all_bytes;
    for (const Tenant& t : tenants)
      all_bytes.insert(all_bytes.end(), t.ring.begin(), t.ring.end());
    dbi::SessionSpec spec;
    spec.policy = Scheme::kAc;
    spec.geometry = kGeometry;
    spec.threads = kServerWorkers;
    dbi::Session offline(spec);
    const std::int64_t offline_bursts =
        static_cast<std::int64_t>(all_bytes.size()) /
        kGeometry.bytes_per_burst();
    SpanLog::Writer& w = log.writer();
    const double offline_rate = op_mbursts(S * 0.1, offline_bursts, [&] {
      Span s(&w, "api.offline_encode");
      const auto source = dbi::make_packed_source(all_bytes);
      (void)offline.run(*source);
    });

    res.set("serve.connect_ms", median(fleet.connect_ms));
    res.set("serve.offline_mbursts_s", offline_rate);
    res.set("serve.vs_offline", mixed.mbursts / offline_rate);
    res.set("serve.bursts_per_batch", batch_bursts_mean(before, after));
    res.set("serve.busy_rejects",
            static_cast<double>(mixed.busy + traced.busy + solo.busy));
    // A p99 resting on fewer than kMinBeyondP99 samples above it is left
    // unreported (n/a).
    const auto p99 = [&](const char* name, const LatencySummary& l) {
      res.detail(std::string(name) + " samples=" + std::to_string(l.samples) +
                 " beyond_p99=" + std::to_string(l.beyond_p99));
      if (l.beyond_p99 < kMinBeyondP99) return false;
      res.set(name, l.p99_us);
      return true;
    };
    p99("serve.latency_p99_us", all_lat);
    const bool small_ok = p99("serve.small_req_p99_us", small_lat);
    p99("serve.bulk_p99_us", bulk_lat);
    if (p99("serve.small_solo_p99_us", solo_lat) && small_ok)
      res.set("serve.small_p99_amplification",
              small_lat.p99_us / solo_lat.p99_us);
    res.set("obs.tracing_overhead", traced.mbursts / mixed.mbursts);
    res.detail("served_mbursts_s=" + std::to_string(mixed.mbursts));
  }

  // Reference check, outside the timed region: tenant small-0's served
  // masks against one offline pass over the same bytes. The offline
  // passes over all three rings also give the energy figure, which so
  // does not depend on where the timed loops cut each tenant's stream.
  const Tenant& mt = tenants[kMaskTenant];
  std::vector<dbi::engine::BurstResult> offline;
  StreamStats ring_totals;
  for (const Tenant& t : tenants) {
    dbi::SessionSpec spec;
    spec.policy = Scheme::kAc;
    spec.geometry = kGeometry;
    dbi::Session session(spec);
    const auto source = dbi::make_packed_source(t.ring);
    std::vector<dbi::engine::BurstResult> results;
    const auto sink = dbi::make_result_sink(results);
    ring_totals += session.run(*source, *sink);
    if (&t == &mt) offline = std::move(results);
  }
  std::vector<std::uint64_t> served = mt.masks;
  if (opt.fault && !served.empty()) served.back() ^= 1;
  bool masks_ok = !served.empty() && served.size() <= offline.size();
  for (std::size_t i = 0; masks_ok && i < served.size(); ++i)
    masks_ok = served[i] == offline[i].invert_mask;
  res.detail("masks_checked=" + std::to_string(served.size()));
  res.check("serve.masks_match_offline", masks_ok);
  res.check("serve.no_busy_rejects", total.busy == 0);
  res.attempted += total.requests;
  res.failed += total.busy;

  res.set("interface_pj_per_burst", interface_pj_per_burst(ring_totals));
  res.set("setup_s", median(setup_s));
  res.set("peak_rss_mb", peak_rss_mb());
  tenants.clear();
  fleet.server->stop();
  return res;
}

}  // namespace perfbench
