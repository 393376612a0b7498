// serve::Server — the multi-tenant dbid daemon core.
//
// A long-running server on a Unix-domain socket speaking the framed
// protocol of serve/protocol.hpp. Every connection belongs to one
// tenant (fixed by its hello frame); tenants keep their Session-style
// state — scheme, geometry, kernel pin and the threaded per-(lane,
// group) BusState history — alive across requests and reconnects, so
// a stream chunked over many small requests encodes bit-identically
// to one offline `dbitool record` pass.
//
// Scheduling: one loop thread poll(2)s the listen socket, a wake pipe
// and every connection. Each pass reads what every reported connection
// sent (FrameAssembler), answers hello / stats / shutdown and admits
// data requests, then runs one deficit round-robin batch (quantum in
// bursts), so a hot tenant cannot starve its neighbours, coalescing one
// tenant's consecutive small encodes into one StreamEncoder chunk over
// the shared ShardPool. Only then do replies leave, one non-blocking
// send per connection: a round trip on a connection accepted before
// others is a barrier for everything they sent before it. Queues are
// bounded: a full one rejects at admission with a typed kBusy frame.
//
// Observability reuses obs::Registry: per-tenant request / busy /
// burst counters, queue-depth and request-latency histograms
// (p50/p90/p99 via the log2 buckets), the dbi_build_info gauge, and a
// kStats frame returning Snapshot::to_prometheus() — the socket twin
// of a GET /metrics endpoint.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/geometry.hpp"
#include "engine/batch_decoder.hpp"
#include "engine/batch_encoder.hpp"
#include "engine/shard_pool.hpp"
#include "engine/stream_encoder.hpp"
#include "obs/observer.hpp"
#include "serve/protocol.hpp"

namespace dbi::serve {

struct ServerOptions {
  std::string socket_path;
  /// Shared ShardPool workers for the engine calls; 0 or 1 = serial.
  int workers = 0;
  /// Per-tenant admission bound, in queued requests; a full queue
  /// rejects with kBusy.
  std::size_t max_queue_requests = 64;
  /// Coalescing cap: one engine call handles at most this many bursts.
  std::size_t max_batch_bursts = 8192;
  /// Deficit-round-robin quantum, in bursts per tenant per round.
  std::int64_t quantum_bursts = 2048;
  /// Registry slab cells (per-tenant series cost ~140 cells each).
  std::size_t max_cells = 65536;
  /// No-progress limit on a connection's queued replies: when none of
  /// them can be sent for this long (the client stopped reading), the
  /// connection is dropped. The loop never waits on a send, so a slow
  /// consumer never stalls its neighbours. 0 disables the limit.
  std::chrono::milliseconds send_timeout{5000};
  /// Test hook: stall this long before each scheduled batch, so soak
  /// tests can force queueing and observe backpressure deterministically.
  std::chrono::nanoseconds batch_delay{0};
  /// Fault hook for kVerify requests, the daemon-side twin of
  /// SessionSpec::fault_injector: called between encode and decode
  /// with the materialised wire bytes and masks (both mutable), keyed
  /// by tenant so soak tests can corrupt a subset of tenants.
  std::function<void(std::string_view tenant, std::int64_t first_burst,
                     std::span<std::uint8_t> tx,
                     std::span<std::uint64_t> masks)>
      fault_injector;

  void validate() const;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();  ///< calls stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket, spawns the loop thread.
  /// Throws std::system_error when the path cannot be bound.
  void start();

  /// Asks the server to stop (idempotent, async-signal-unsafe but
  /// thread-safe): admissions close, stop() / wait_stop_requested()
  /// observers wake. Also triggered by a client kShutdown frame.
  void request_stop();

  /// True once request_stop() ran; waits up to `d` for it.
  bool wait_stop_requested(std::chrono::milliseconds d);

  /// Graceful drain: stops admissions, finishes every already-admitted
  /// request, flushes each connection's replies (within send_timeout),
  /// joins the loop thread, unlinks the socket. Idempotent.
  void stop();

  [[nodiscard]] bool running() const { return started_ && !stopped_; }
  [[nodiscard]] const ServerOptions& options() const { return options_; }
  [[nodiscard]] obs::Observer& observer() { return *obs_; }
  [[nodiscard]] obs::Snapshot metrics() const { return obs_->snapshot(); }

 private:
  struct Connection;
  struct Request;
  struct Tenant;

  void loop();
  void accept_all();
  /// Reads and handles what `c` sent, until its socket is drained.
  void read_from(Connection& c);
  /// One deficit round-robin turn over the active tenants; false when
  /// it dispatched no batch.
  bool run_turn();
  std::unique_ptr<Tenant> make_tenant(const HelloRequest& h,
                                      const engine::KernelVariant* kernel);
  void handle_frame(Connection& c, Frame& frame);
  void hello(Connection& c, const Frame& frame);
  void admit(Connection& c, Tenant& tenant, Frame& frame);
  void process_batch(Tenant& tenant, std::vector<Request>& batch);
  void process_encode_run(Tenant& tenant, std::span<Request> run,
                          std::size_t total_bursts);
  void process_decode(Tenant& tenant, Request& rq);
  void process_verify(Tenant& tenant, Request& rq);
  void respond(Tenant& tenant, Request& rq, Frame&& frame);
  /// Queues `frame` on `c`; it leaves with the connection's next flush.
  void reply(Connection& c, Frame&& frame);
  /// One non-blocking send of `c`'s queued replies; false when the
  /// socket broke.
  bool flush(Connection& c);

  ServerOptions options_;
  std::unique_ptr<obs::Observer> obs_;
  std::unique_ptr<engine::ShardPool> pool_;  // null = serial engine calls

  int listen_fd_ = -1;
  int wake_[2] = {-1, -1};  ///< pipe: stop() writes, the loop polls
  bool started_ = false;
  bool stopped_ = false;

  std::mutex mu_;                      // request_stop() observers
  std::condition_variable stop_cv_;
  std::atomic<bool> stop_requested_{false};  // admissions closed
  std::atomic<bool> drain_{false};  // loop exits once queues and replies end

  // Loop-thread state.
  std::unordered_map<std::string, std::unique_ptr<Tenant>> tenants_;
  std::deque<Tenant*> active_;  // tenants with queued work, RR order
  std::map<std::uint64_t, std::unique_ptr<Connection>> conns_;  ///< by id
  std::uint64_t next_conn_id_ = 0;
  std::chrono::steady_clock::time_point accept_resume_{};  ///< EMFILE back-off

  // Fleet-wide metric handles.
  obs::Counter connections_, batches_;
  obs::Histogram batch_bursts_;
  obs::Gauge tenants_gauge_;

  std::thread loop_thread_;  // last: it runs on every member above
};

/// dbid main body: runs a Server on `options` until SIGTERM/SIGINT or
/// a client kShutdown frame, then drains. Returns a process exit code.
/// `ready_fd` (when >= 0) receives one status byte once startup
/// resolves — 0 when the socket is bound (the readiness handshake
/// `dbitool serve --fork` and the smoke tests wait on), or 1 followed
/// by the failure reason when startup threw (stderr may be /dev/null
/// by then, so the pipe is the only channel back to the parent).
int run_daemon(const ServerOptions& options, int ready_fd = -1);

}  // namespace dbi::serve
