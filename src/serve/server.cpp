#include "serve/server.hpp"

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "api/version.hpp"
#include "engine/kernel_registry.hpp"

namespace dbi::serve {

namespace {

std::string label(std::string_view key, std::string_view value) {
  std::string out(key);
  out += "=\"";
  out += value;
  out += "\"";
  return out;
}

/// Tenant names become Prometheus label values verbatim, so the
/// accepted alphabet is locked down at hello time.
bool valid_tenant_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    if (!ok) return false;
  }
  return true;
}

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

}  // namespace

void ServerOptions::validate() const {
  if (socket_path.empty())
    throw std::invalid_argument("serve: socket_path must be set");
  sockaddr_un addr{};
  if (socket_path.size() >= sizeof(addr.sun_path))
    throw std::invalid_argument("serve: socket_path over the AF_UNIX limit (" +
                                std::to_string(sizeof(addr.sun_path) - 1) +
                                " bytes)");
  if (max_batch_bursts == 0)
    throw std::invalid_argument("serve: max_batch_bursts must be positive");
  if (quantum_bursts <= 0)
    throw std::invalid_argument("serve: quantum_bursts must be positive");
  if (send_timeout.count() < 0)
    throw std::invalid_argument("serve: send_timeout must be >= 0");
}

/// One accepted socket. Reader and scheduler threads both write
/// responses, serialized by write_mu; the fd closes with the last
/// shared_ptr owner.
struct Server::Connection {
  explicit Connection(int fd_in) : fd(fd_in) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends one frame. The socket carries SO_SNDTIMEO: a write that
  /// cannot progress within the timeout (the peer stopped reading while
  /// flooding requests) marks the connection dead and shuts it down, so
  /// later responses fail fast instead of each paying the timeout — a
  /// slow consumer costs the scheduler one bounded wait, never a hang.
  void send(const Frame& frame) {
    std::lock_guard<std::mutex> lk(write_mu);
    if (dead.load(std::memory_order_relaxed))
      throw std::system_error(EPIPE, std::generic_category(),
                              "serve: connection dropped (slow consumer)");
    try {
      write_frame(fd, frame);
    } catch (const std::system_error& e) {
      const int err = e.code().value();
      if (err == EAGAIN || err == EWOULDBLOCK || err == ETIMEDOUT) {
        dead.store(true, std::memory_order_relaxed);
        ::shutdown(fd, SHUT_RDWR);  // also unblocks the reader thread
      }
      throw;
    }
  }

  int fd;
  std::mutex write_mu;
  std::atomic<bool> dead{false};
};

/// One admitted request. It owns the raw wire frame payload (moved in
/// from the reader, never copied) and views its data section through a
/// span — the span survives Request moves because a moved vector keeps
/// its heap buffer.
struct Server::Request {
  FrameType type = FrameType::kEncode;
  std::uint32_t seq = 0;
  std::uint32_t flags = 0;
  std::uint32_t burst_count = 0;
  std::vector<std::uint8_t> raw;        ///< the wire frame payload, moved in
  std::span<const std::uint8_t> data;   ///< payload (encode/verify) or tx
                                        ///< (decode), aliasing `raw`
  std::vector<std::uint64_t> masks;     ///< decode only
  std::shared_ptr<Connection> conn;
  std::chrono::steady_clock::time_point enqueued;
};

/// Per-tenant session state + admission queue. Engine members are only
/// touched by the scheduler thread; the queue / deficit fields are
/// guarded by Server::mu_.
struct Server::Tenant {
  std::string name;
  Geometry geometry;
  Scheme scheme = Scheme::kAc;
  int lanes = 1;
  bool reset_per_burst = false;
  const engine::KernelVariant* kernel = nullptr;
  int groups = 1;
  std::size_t bytes_per_burst = 0;

  std::unique_ptr<engine::BatchEncoder> encoder;
  std::unique_ptr<engine::StreamEncoder> stream;
  engine::BatchDecoder decoder;
  std::int64_t next_burst = 0;  ///< stream-global index, fixes the interleave

  std::deque<Request> queue;
  std::int64_t deficit = 0;
  bool in_active = false;

  // Scheduler-thread scratch, reused across batches.
  std::vector<std::uint8_t> scratch, tx_scratch, rx_scratch;
  std::vector<std::uint64_t> mask_scratch;

  obs::Counter req_encode, req_decode, req_verify, busy, errors;
  obs::Counter bursts_total, bytes_total;
  obs::Histogram latency, queue_depth;
};

Server::Server(ServerOptions options) : options_(std::move(options)) {
  options_.validate();
  obs_ = std::make_unique<obs::Observer>(obs::ObsConfig{
      .level = obs::ObsLevel::kCounters, .max_cells = options_.max_cells});
  if (options_.workers >= 2) {
    pool_ = std::make_unique<engine::ShardPool>(options_.workers);
    obs_->attach_pool(*pool_);
  }
  obs::Registry& r = obs_->registry();
  connections_ = r.counter("dbi_serve_connections_total");
  batches_ = r.counter("dbi_serve_batches_total");
  batch_bursts_ = r.histogram("dbi_serve_batch_bursts");
  tenants_gauge_ = r.gauge("dbi_serve_tenants");
}

Server::~Server() { stop(); }

void Server::start() {
  if (started_) return;
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw std::system_error(errno, std::generic_category(), "serve: socket");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);
  ::unlink(options_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::system_error(err, std::generic_category(),
                            "serve: bind " + options_.socket_path);
  }
  if (::listen(listen_fd_, 64) < 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::system_error(err, std::generic_category(), "serve: listen");
  }
  started_ = true;
  scheduler_thread_ = std::thread([this] { scheduler_loop(); });
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::request_stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stop_requested_) return;
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
}

bool Server::wait_stop_requested(std::chrono::milliseconds d) {
  std::unique_lock<std::mutex> lk(mu_);
  return stop_cv_.wait_for(lk, d, [this] { return stop_requested_; });
}

void Server::stop() {
  if (!started_ || stopped_) return;
  request_stop();

  // 1. Stop accepting: wake the blocked accept() and join it.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  // 2. Drain: admissions are closed (readers now reject with
  // kShuttingDown), so the scheduler finishes every queued request —
  // responses included — and exits.
  {
    std::lock_guard<std::mutex> lk(mu_);
    drain_ = true;
  }
  sched_cv_.notify_all();
  if (scheduler_thread_.joinable()) scheduler_thread_.join();

  // 3. Unblock and join the readers — the live ones and any that
  // already exited and parked their handles for reaping.
  std::vector<std::shared_ptr<Connection>> conns;
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lk(mu_);
    conns.swap(conns_);
    readers.reserve(reader_threads_.size() + finished_readers_.size());
    for (auto& [conn, thread] : reader_threads_)
      readers.push_back(std::move(thread));
    reader_threads_.clear();
    for (auto& thread : finished_readers_) readers.push_back(std::move(thread));
    finished_readers_.clear();
  }
  for (const auto& c : conns) ::shutdown(c->fd, SHUT_RDWR);
  for (auto& t : readers)
    if (t.joinable()) t.join();

  ::unlink(options_.socket_path.c_str());
  stopped_ = true;
}

void Server::accept_loop() {
  for (;;) {
    reap_readers();
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      const int err = errno;
      if (err == EINTR || err == ECONNABORTED) continue;
      if (err == EMFILE || err == ENFILE || err == ENOBUFS ||
          err == ENOMEM) {
        // Transient resource exhaustion: exiting here would leave a
        // daemon that looks healthy but never accepts again. Back off
        // and retry until stop is requested.
        if (wait_stop_requested(std::chrono::milliseconds(50))) return;
        continue;
      }
      return;  // listen socket shut down (stop()) or fatally broken
    }
    if (options_.send_timeout.count() > 0) {
      timeval tv{};
      tv.tv_sec = static_cast<time_t>(options_.send_timeout.count() / 1000);
      tv.tv_usec =
          static_cast<suseconds_t>(options_.send_timeout.count() % 1000) *
          1000;
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (stop_requested_) {
        ::close(fd);
        return;
      }
      auto conn = std::make_shared<Connection>(fd);
      conns_.push_back(conn);
      Connection* key = conn.get();
      reader_threads_.emplace(
          key, std::thread([this, conn]() mutable {
            reader_loop(std::move(conn));
          }));
    }
    connections_.inc();
  }
}

void Server::reap_readers() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lk(mu_);
    done.swap(finished_readers_);
  }
  // These threads have already left reader_loop's frame-processing loop
  // (they parked their handles as their last locked action), so each
  // join returns almost immediately.
  for (auto& t : done)
    if (t.joinable()) t.join();
}

void Server::reader_loop(std::shared_ptr<Connection> conn) {
  Tenant* tenant = nullptr;
  Frame frame;
  for (;;) {
    try {
      if (!read_frame(conn->fd, frame)) break;  // clean EOF
    } catch (const std::exception&) {
      break;  // malformed stream / reset: drop the connection
    }
    try {
      handle_frame(conn, tenant, frame);
    } catch (const std::exception& e) {
      // Reply with a typed error; if even that fails, drop the
      // connection.
      try {
        conn->send(make_error(frame.seq, StatusCode::kBadFrame, e.what()));
      } catch (const std::exception&) {
        break;
      }
    }
  }
  // Self-reap: forget the connection (the fd closes once any queued
  // requests release their references) and park this thread's handle
  // for the accept loop / stop() to join. Without this a long-running
  // daemon leaks one fd and one thread handle per disconnect.
  std::lock_guard<std::mutex> lk(mu_);
  conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                              [&](const std::shared_ptr<Connection>& c) {
                                return c.get() == conn.get();
                              }),
               conns_.end());
  auto it = reader_threads_.find(conn.get());
  if (it != reader_threads_.end()) {
    finished_readers_.push_back(std::move(it->second));
    reader_threads_.erase(it);
  }
}

void Server::handle_frame(const std::shared_ptr<Connection>& conn,
                          Tenant*& tenant, Frame& frame) {
  switch (frame.type) {
    case FrameType::kHello: {
      Tenant* t = hello(conn, frame);
      if (t != nullptr) tenant = t;
      return;
    }
    case FrameType::kStats: {
      const std::string text = metrics().to_prometheus();
      conn->send(make_frame(
          FrameType::kStatsAck, frame.seq,
          std::vector<std::uint8_t>(text.begin(), text.end())));
      return;
    }
    case FrameType::kShutdown: {
      conn->send(make_frame(FrameType::kShutdownAck, frame.seq));
      request_stop();
      return;
    }
    case FrameType::kEncode:
    case FrameType::kDecode:
    case FrameType::kVerify: {
      if (tenant == nullptr) {
        conn->send(make_error(frame.seq, StatusCode::kBadState,
                              "request before hello"));
        return;
      }
      admit(conn, *tenant, frame);
      return;
    }
    default:
      conn->send(make_error(frame.seq, StatusCode::kBadFrame,
                            "unexpected frame type"));
  }
}

std::unique_ptr<Server::Tenant> Server::make_tenant(
    const HelloRequest& h, const engine::KernelVariant* kernel) {
  auto t = std::make_unique<Tenant>();
  t->name = h.tenant;
  t->geometry = h.geometry;
  t->scheme = h.scheme;
  t->lanes = h.lanes;
  t->reset_per_burst = h.reset_state_per_burst;
  t->kernel = kernel;
  t->groups = h.geometry.groups();
  t->bytes_per_burst =
      static_cast<std::size_t>(h.geometry.bytes_per_burst());
  t->encoder = std::make_unique<engine::BatchEncoder>(h.scheme);
  t->encoder->set_kernel(*kernel);
  t->encoder->set_observer(obs_.get());
  t->decoder.set_kernel(*kernel);
  t->decoder.set_observer(obs_.get());
  engine::StreamEncodeOptions sopt;
  sopt.lanes = h.lanes;
  sopt.reset_state_per_burst = h.reset_state_per_burst;
  sopt.pool = pool_.get();
  sopt.obs = obs_.get();
  t->stream =
      std::make_unique<engine::StreamEncoder>(*t->encoder, h.geometry, sopt);

  obs::Registry& r = obs_->registry();
  const std::string tl = label("tenant", t->name);
  t->req_encode =
      r.counter("dbi_serve_requests_total", tl + "," + label("op", "encode"));
  t->req_decode =
      r.counter("dbi_serve_requests_total", tl + "," + label("op", "decode"));
  t->req_verify =
      r.counter("dbi_serve_requests_total", tl + "," + label("op", "verify"));
  t->busy = r.counter("dbi_serve_busy_total", tl);
  t->errors = r.counter("dbi_serve_errors_total", tl);
  t->bursts_total = r.counter("dbi_serve_bursts_total", tl);
  t->bytes_total = r.counter("dbi_serve_bytes_total", tl);
  t->latency = r.histogram("dbi_serve_request_latency_ns", tl);
  t->queue_depth = r.histogram("dbi_serve_queue_depth", tl);
  return t;
}

Server::Tenant* Server::hello(const std::shared_ptr<Connection>& conn,
                              const Frame& frame) {
  HelloRequest h;
  try {
    h = HelloRequest::parse(frame.payload);
    h.geometry.validate();
    if (!valid_tenant_name(h.tenant))
      throw std::invalid_argument(
          "tenant names are 1-64 chars of [A-Za-z0-9._-]");
    if (h.lanes < 1)
      throw std::invalid_argument("lanes must be >= 1");
  } catch (const std::exception& e) {
    conn->send(make_error(frame.seq, StatusCode::kBadFrame, e.what()));
    return nullptr;
  }

  const engine::KernelVariant* kernel = nullptr;
  try {
    kernel = &engine::resolve_kernel(h.kernel);
  } catch (const std::exception& e) {
    conn->send(make_error(frame.seq, StatusCode::kBadFrame, e.what()));
    return nullptr;
  }

  // The reply frame is built under mu_ and sent after release — a
  // socket write can block on a slow peer and must never pin the lock
  // that admissions and the scheduler share.
  Frame reply;
  Tenant* result = nullptr;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stop_requested_) {
      reply = make_error(frame.seq, StatusCode::kShuttingDown,
                         "server is draining");
    } else {
      auto it = tenants_.find(h.tenant);
      if (it == tenants_.end()) {
        try {
          auto t = make_tenant(h, kernel);
          it = tenants_.emplace(t->name, std::move(t)).first;
          tenants_gauge_.set(static_cast<double>(tenants_.size()));
          result = it->second.get();
        } catch (const std::exception& e) {
          reply = make_error(frame.seq, StatusCode::kInternal, e.what());
        }
      } else {
        // Reconnect: the spec must match the live session bit for bit.
        Tenant& t = *it->second;
        if (t.geometry != h.geometry || t.scheme != h.scheme ||
            t.lanes != h.lanes ||
            t.reset_per_burst != h.reset_state_per_burst ||
            t.kernel != kernel) {
          reply = make_error(
              frame.seq, StatusCode::kBadState,
              "tenant '" + h.tenant + "' exists with a different spec");
        } else {
          result = it->second.get();
        }
      }
    }
  }

  if (result != nullptr) {
    HelloAck ack;
    ack.build = std::string(build_version());
    ack.max_queue_requests =
        static_cast<std::uint32_t>(options_.max_queue_requests);
    reply = make_frame(FrameType::kHelloAck, frame.seq, ack.to_payload());
  }
  conn->send(reply);
  return result;
}

void Server::admit(const std::shared_ptr<Connection>& conn, Tenant& tenant,
                   Frame& frame) {
  Request rq;
  rq.type = frame.type;
  rq.seq = frame.seq;
  rq.conn = conn;
  try {
    if (frame.type == FrameType::kDecode) {
      DecodeRequest d = DecodeRequest::parse(frame.payload, rq.masks);
      rq.burst_count = d.burst_count;
      if (d.tx.size() != d.burst_count * tenant.bytes_per_burst)
        throw ProtocolError("decode tx size does not match burst_count");
      if (d.masks.size() !=
          static_cast<std::size_t>(d.burst_count) * tenant.groups)
        throw ProtocolError("decode mask count does not match burst_count");
      // Take the frame buffer instead of copying it: the parsed tx
      // span aliases heap storage that the move transfers intact.
      rq.raw = std::move(frame.payload);
      rq.data = d.tx;
    } else {
      EncodeRequest e = EncodeRequest::parse(frame.payload);
      rq.flags = e.flags;
      rq.burst_count = e.burst_count;
      if (e.payload.size() != e.burst_count * tenant.bytes_per_burst)
        throw ProtocolError("payload size does not match burst_count");
      if (e.burst_count == 0)
        throw ProtocolError("empty request (burst_count 0)");
      if (frame.type == FrameType::kEncode) {
        // An ack echoing masks (+ tx with kWantTx) can exceed the frame
        // cap even though the request fits — reject here with a typed
        // error instead of discovering an unsendable response later.
        const std::uint64_t ack_size =
            28ull +
            static_cast<std::uint64_t>(e.burst_count) *
                static_cast<std::uint64_t>(tenant.groups) * 8ull +
            (((e.flags & EncodeRequest::kWantTx) != 0) ? e.payload.size()
                                                       : 0ull);
        if (ack_size > kMaxPayload)
          throw ProtocolError(
              "response would exceed the 64 MiB frame cap; split the "
              "request");
      }
      rq.raw = std::move(frame.payload);
      rq.data = e.payload;
    }
  } catch (const std::exception& e) {
    tenant.errors.inc();
    conn->send(make_error(frame.seq, StatusCode::kBadFrame, e.what()));
    return;
  }

  // Decide under mu_, send after release: rejection frames must not
  // block the lock on a peer that is not reading.
  rq.enqueued = std::chrono::steady_clock::now();
  Frame reject;
  bool rejected = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stop_requested_) {
      reject = make_error(frame.seq, StatusCode::kShuttingDown,
                          "server is draining");
      rejected = true;
    } else if (tenant.queue.size() >= options_.max_queue_requests) {
      // Backpressure: bounded queue, typed rejection, engine untouched.
      tenant.busy.inc();
      BusyInfo info{static_cast<std::uint32_t>(tenant.queue.size()),
                    static_cast<std::uint32_t>(options_.max_queue_requests)};
      reject = make_frame(FrameType::kBusy, frame.seq, info.to_payload(),
                          StatusCode::kBusy);
      rejected = true;
    } else {
      switch (frame.type) {
        case FrameType::kEncode: tenant.req_encode.inc(); break;
        case FrameType::kDecode: tenant.req_decode.inc(); break;
        default: tenant.req_verify.inc(); break;
      }
      tenant.queue.push_back(std::move(rq));
      tenant.queue_depth.observe(tenant.queue.size());
      if (!tenant.in_active) {
        tenant.in_active = true;
        active_.push_back(&tenant);
      }
    }
  }
  if (rejected) {
    conn->send(reject);
    return;
  }
  sched_cv_.notify_one();
}

void Server::scheduler_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    sched_cv_.wait(lk, [this] { return drain_ || !active_.empty(); });
    if (active_.empty()) {
      if (drain_) return;
      continue;
    }

    // Deficit round-robin: the tenant at the head of the active list
    // earns one quantum and dispatches queued requests while they fit
    // its deficit and the coalescing cap.
    Tenant* t = active_.front();
    active_.pop_front();
    t->in_active = false;
    t->deficit += options_.quantum_bursts;

    std::vector<Request> batch;
    std::size_t batch_bursts = 0;
    while (!t->queue.empty()) {
      Request& front = t->queue.front();
      const auto cost = std::max<std::int64_t>(1, front.burst_count);
      if (!batch.empty() &&
          batch_bursts + static_cast<std::size_t>(cost) >
              options_.max_batch_bursts)
        break;
      if (cost > t->deficit) break;
      t->deficit -= cost;
      batch_bursts += static_cast<std::size_t>(cost);
      batch.push_back(std::move(front));
      t->queue.pop_front();
    }
    if (!t->queue.empty()) {
      // Work left (deficit or cap ran out): back of the round-robin
      // ring, keeping the accumulated deficit.
      t->in_active = true;
      active_.push_back(t);
    } else {
      t->deficit = 0;  // classic DRR: no banking across idle periods
    }

    if (!batch.empty()) {
      lk.unlock();
      batches_.inc();
      batch_bursts_.observe(batch_bursts);
      process_batch(*t, batch);
      lk.lock();
    }
  }
}

void Server::process_batch(Tenant& tenant, std::vector<Request>& batch) {
  if (options_.batch_delay.count() > 0)
    std::this_thread::sleep_for(options_.batch_delay);
  std::size_t i = 0;
  while (i < batch.size()) {
    if (batch[i].type == FrameType::kEncode) {
      // Coalesce the run of consecutive encodes into one engine chunk.
      std::size_t j = i;
      std::size_t total = 0;
      while (j < batch.size() && batch[j].type == FrameType::kEncode) {
        total += batch[j].burst_count;
        ++j;
      }
      process_encode_run(tenant,
                         std::span<Request>(batch).subspan(i, j - i), total);
      i = j;
    } else if (batch[i].type == FrameType::kDecode) {
      process_decode(tenant, batch[i]);
      ++i;
    } else {
      process_verify(tenant, batch[i]);
      ++i;
    }
  }
}

void Server::process_encode_run(Tenant& tenant, std::span<Request> run,
                                std::size_t total_bursts) {
  std::span<const std::uint8_t> payload;
  if (run.size() == 1) {
    payload = run[0].data;
  } else {
    tenant.scratch.clear();
    for (const Request& rq : run)
      tenant.scratch.insert(tenant.scratch.end(), rq.data.begin(),
                            rq.data.end());
    payload = tenant.scratch;
  }

  std::span<const engine::BurstResult> results;
  try {
    results = tenant.stream->encode_chunk(tenant.next_burst, payload,
                                          total_bursts,
                                          /*collect_results=*/true);
  } catch (const std::exception& e) {
    fail_batch(tenant, run, StatusCode::kInternal, e.what());
    return;
  }

  const int groups = tenant.groups;
  std::size_t off = 0;  // this request's first burst within the chunk
  for (Request& rq : run) {
    EncodeAck ack;
    ack.burst_count = rq.burst_count;
    ack.masks.resize(static_cast<std::size_t>(rq.burst_count) * groups);
    for (std::uint32_t b = 0; b < rq.burst_count; ++b) {
      for (int g = 0; g < groups; ++g) {
        const engine::BurstResult& res = results[(off + b) * groups + g];
        ack.masks[static_cast<std::size_t>(b) * groups + g] = res.invert_mask;
        ack.zeros += static_cast<std::uint64_t>(res.stats.zeros);
        ack.transitions += static_cast<std::uint64_t>(res.stats.transitions);
      }
    }
    if ((rq.flags & EncodeRequest::kWantTx) != 0) {
      ack.tx.resize(rq.data.size());
      try {
        tenant.decoder.apply(rq.data, ack.masks, tenant.geometry, ack.tx);
      } catch (const std::exception& e) {
        respond(tenant, rq, make_error(rq.seq, StatusCode::kInternal,
                                       e.what()));
        off += rq.burst_count;
        continue;
      }
    }
    tenant.bursts_total.add(rq.burst_count);
    tenant.bytes_total.add(rq.data.size());
    respond(tenant, rq,
            make_frame(FrameType::kEncodeAck, rq.seq, ack.to_payload()));
    off += rq.burst_count;
  }
  tenant.next_burst += static_cast<std::int64_t>(total_bursts);
}

void Server::process_decode(Tenant& tenant, Request& rq) {
  tenant.rx_scratch.resize(rq.data.size());
  try {
    tenant.decoder.decode(rq.data, rq.masks, tenant.geometry,
                          tenant.rx_scratch);
  } catch (const std::exception& e) {
    respond(tenant, rq, make_error(rq.seq, StatusCode::kInternal, e.what()));
    return;
  }
  tenant.bursts_total.add(rq.burst_count);
  tenant.bytes_total.add(rq.data.size());
  respond(tenant, rq,
          make_frame(FrameType::kDecodeAck, rq.seq,
                     std::vector<std::uint8_t>(tenant.rx_scratch.begin(),
                                               tenant.rx_scratch.end())));
}

void Server::process_verify(Tenant& tenant, Request& rq) {
  // Encode (advancing the tenant's line state exactly like kEncode),
  // materialise the wire, run the fault hook, decode, compare.
  VerifyAck ack;
  ack.burst_count = rq.burst_count;
  try {
    const std::span<const engine::BurstResult> results =
        tenant.stream->encode_chunk(tenant.next_burst, rq.data,
                                    rq.burst_count, /*collect_results=*/true);
    tenant.mask_scratch.resize(results.size());
    for (std::size_t k = 0; k < results.size(); ++k) {
      tenant.mask_scratch[k] = results[k].invert_mask;
      ack.zeros += static_cast<std::uint64_t>(results[k].stats.zeros);
      ack.transitions +=
          static_cast<std::uint64_t>(results[k].stats.transitions);
    }
    tenant.tx_scratch.resize(rq.data.size());
    tenant.rx_scratch.resize(rq.data.size());
    tenant.decoder.apply(rq.data, tenant.mask_scratch, tenant.geometry,
                         tenant.tx_scratch);
    if (options_.fault_injector)
      options_.fault_injector(tenant.name, tenant.next_burst,
                              tenant.tx_scratch, tenant.mask_scratch);
    tenant.decoder.decode(tenant.tx_scratch, tenant.mask_scratch,
                          tenant.geometry, tenant.rx_scratch);
  } catch (const std::exception& e) {
    respond(tenant, rq, make_error(rq.seq, StatusCode::kInternal, e.what()));
    return;
  }
  tenant.next_burst += rq.burst_count;

  for (std::size_t k = 0; k < rq.data.size(); ++k)
    if (tenant.rx_scratch[k] != rq.data[k]) ++ack.mismatched_bytes;
  ack.ok = ack.mismatched_bytes == 0;
  tenant.bursts_total.add(rq.burst_count);
  tenant.bytes_total.add(rq.data.size());
  respond(tenant, rq,
          make_frame(FrameType::kVerifyAck, rq.seq, ack.to_payload()));
}

void Server::respond(Tenant& tenant, Request& rq, Frame&& frame) {
  tenant.latency.observe(elapsed_ns(rq.enqueued));
  if (frame.type == FrameType::kError) tenant.errors.inc();
  try {
    rq.conn->send(frame);
  } catch (const ProtocolError& e) {
    // An over-cap response slipped past the admission-time size check.
    // The client is still connected and waiting, so answer with a typed
    // error (small, always sendable) instead of silence.
    tenant.errors.inc();
    try {
      rq.conn->send(make_error(rq.seq, StatusCode::kInternal, e.what()));
    } catch (const std::exception&) {
    }
  } catch (const std::exception&) {
    // Client went away before its response; the work is still done and
    // counted. Nothing to clean up — the connection closes with the
    // last shared_ptr.
  }
}

void Server::fail_batch(Tenant& tenant, std::span<Request> run,
                        StatusCode status, std::string_view message) {
  for (Request& rq : run)
    respond(tenant, rq, make_error(rq.seq, status, message));
}

// --- daemon body ------------------------------------------------------

namespace {
volatile std::sig_atomic_t g_signal = 0;
void on_signal(int) { g_signal = 1; }
}  // namespace

int run_daemon(const ServerOptions& options, int ready_fd) {
  std::signal(SIGPIPE, SIG_IGN);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);

  std::unique_ptr<Server> server;
  try {
    server = std::make_unique<Server>(options);
    server->start();
  } catch (const std::exception& e) {
    // Startup failed (bad options, bind error, …). Under `dbitool serve
    // --fork` stderr is already /dev/null, so the reason travels back
    // to the invoking parent through the readiness pipe: status byte 1
    // followed by the message (a clean start sends status byte 0).
    if (ready_fd >= 0) {
      const char failed = 1;
      (void)!::write(ready_fd, &failed, 1);
      (void)!::write(ready_fd, e.what(), std::strlen(e.what()));
      ::close(ready_fd);
    }
    std::fprintf(stderr, "dbid: %s\n", e.what());
    return 1;
  }
  if (ready_fd >= 0) {
    const char ok = 0;
    (void)!::write(ready_fd, &ok, 1);
    ::close(ready_fd);
  }
  // Wait for SIGTERM/SIGINT or a client kShutdown frame, then drain.
  while (g_signal == 0 && !server->wait_stop_requested(
                              std::chrono::milliseconds(100))) {
  }
  server->stop();
  return 0;
}

}  // namespace dbi::serve
