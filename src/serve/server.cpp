#include "serve/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <system_error>

#include "api/version.hpp"
#include "engine/kernel_registry.hpp"

namespace dbi::serve {

namespace {

std::string label(std::string_view key, std::string_view value) {
  return std::string(key) + "=\"" + std::string(value) + "\"";
}

/// Tenant names become Prometheus label values verbatim, so the
/// accepted alphabet is locked down at hello time.
bool valid_tenant_name(std::string_view name) {
  return !name.empty() && name.size() <= 64 &&
         std::all_of(name.begin(), name.end(), [](char c) {
           return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
         });
}

/// A frame the server answers with a typed error; any other exception
/// out of handle_frame is answered as kBadFrame.
struct Refusal : std::runtime_error {
  Refusal(StatusCode s, const std::string& message)
      : std::runtime_error(message), status(s) {}
  StatusCode status;
};

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

/// One accepted socket, owned by the loop thread. Frames arrive through
/// `in`; replies queue in `out` as wire bytes and leave through
/// non-blocking sends.
struct Server::Connection {
  Connection(int fd_in, std::uint64_t id_in) : fd(fd_in), id(id_in) {}
  ~Connection() { ::close(fd); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] bool finished() const {
    return eof && owed == 0 && out.empty();
  }

  int fd;
  std::uint64_t id;
  Tenant* tenant = nullptr;  ///< bound by hello
  FrameAssembler in;
  std::vector<std::uint8_t> out;  ///< queued replies
  std::size_t sent = 0;           ///< bytes of `out` already sent
  std::chrono::steady_clock::time_point progress;  ///< last send progress
  std::uint32_t owed = 0;  ///< admitted requests not answered yet
  bool blocked = false;    ///< the last flush left bytes: wait for POLLOUT
  /// The peer stopped sending (EOF or a malformed frame): read no more,
  /// close once every admitted request is answered and flushed.
  bool eof = false;
  bool drop = false;  ///< close at the end of this loop phase
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
  std::uint64_t conn = 0;               ///< id of the requesting connection
  std::chrono::steady_clock::time_point enqueued;
};

/// Per-tenant session state + admission queue, owned by the loop thread.
struct Server::Tenant {
  HelloRequest spec;  ///< as its first hello named it
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

  // Engine scratch, reused across batches.
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
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0)
    throw std::system_error(errno, std::generic_category(), "serve: socket");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);
  ::unlink(options_.socket_path.c_str());
  const auto fail = [this](const std::string& what) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::system_error(err, std::generic_category(), what);
  };
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0)
    fail("serve: bind " + options_.socket_path);
  if (::listen(listen_fd_, 64) < 0) fail("serve: listen");
  if (::pipe2(wake_, O_NONBLOCK | O_CLOEXEC) < 0) fail("serve: pipe");
  loop_thread_ = std::thread([this] { loop(); });
  started_ = true;
}

void Server::request_stop() {
  std::lock_guard<std::mutex> lk(mu_);
  stop_requested_ = true;
  stop_cv_.notify_all();
}

bool Server::wait_stop_requested(std::chrono::milliseconds d) {
  std::unique_lock<std::mutex> lk(mu_);
  return stop_cv_.wait_for(lk, d, [this] { return stop_requested_.load(); });
}

void Server::stop() {
  if (!started_ || stopped_) return;
  // Admissions close (new frames get kShuttingDown); the loop runs the
  // queues dry, flushes every connection and exits.
  request_stop();
  drain_ = true;
  (void)!::write(wake_[1], "", 1);
  loop_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::close(wake_[0]);
  ::close(wake_[1]);
  ::unlink(options_.socket_path.c_str());
  stopped_ = true;
}

void Server::loop() {
  using Clock = std::chrono::steady_clock;
  std::vector<pollfd> fds;
  std::vector<Connection*> polled;  // fds[k + 2] is polled[k]'s socket
  const auto dropped = [](const auto& kv) { return kv.second->drop; };
  const auto unsent = [](const auto& kv) { return !kv.second->out.empty(); };
  for (;;) {
    const bool draining = drain_;
    // Draining, with the queues dry: read nothing more, exit once every
    // reply is out.
    const bool reading = !draining || !active_.empty();
    if (!reading && std::none_of(conns_.begin(), conns_.end(), unsent)) break;

    auto now = Clock::now();
    const bool accepting = !draining && now >= accept_resume_;
    auto deadline = draining || accepting ? Clock::time_point::max()
                                          : accept_resume_;
    fds.clear();
    polled.clear();
    fds.push_back({wake_[0], POLLIN, 0});
    fds.push_back({accepting ? listen_fd_ : -1, POLLIN, 0});
    for (auto& [id, cp] : conns_) {
      Connection& c = *cp;
      short events = 0;
      // A peer that stops reading its replies stops being read once
      // they pass one frame cap, so its backlog stays bounded.
      if (reading && !c.eof && c.out.size() < kMaxPayload) events |= POLLIN;
      if (c.blocked) {
        events |= POLLOUT;
        if (options_.send_timeout.count() > 0)
          deadline = std::min(deadline, c.progress + options_.send_timeout);
      }
      fds.push_back({events != 0 ? c.fd : -1, events, 0});
      polled.push_back(&c);
    }
    int timeout = -1;
    if (!active_.empty())
      timeout = 0;  // queued work: one batch per poll
    else if (deadline != Clock::time_point::max())
      timeout = static_cast<int>(std::max<std::int64_t>(
          0, std::chrono::ceil<std::chrono::milliseconds>(deadline - now)
                 .count()));
    if (::poll(fds.data(), fds.size(), timeout) < 0 && errno != EINTR)
      break;

    char sink[64];
    if ((fds[0].revents & POLLIN) != 0)
      while (::read(wake_[0], sink, sizeof(sink)) > 0) {
      }
    if ((fds[1].revents & POLLIN) != 0) accept_all();
    // Every reported connection is read before any reply leaves.
    for (std::size_t k = 0; k < polled.size(); ++k) {
      const short re = fds[k + 2].revents;
      Connection& c = *polled[k];
      if ((re & (POLLOUT | POLLERR | POLLHUP)) != 0) c.blocked = false;
      if ((fds[k + 2].events & POLLIN) != 0 &&
          (re & (POLLIN | POLLERR | POLLHUP)) != 0)
        read_from(c);
      if (c.finished()) c.drop = true;
    }
    std::erase_if(conns_, dropped);

    // One batch per poll: turns that only add to a tenant's deficit do
    // not wait for another poll.
    while (!active_.empty() && !run_turn()) {
    }

    now = Clock::now();
    for (auto& [id, cp] : conns_) {
      Connection& c = *cp;
      if (!c.out.empty() && !c.blocked && !flush(c)) c.drop = true;
      const bool stalled = c.blocked && options_.send_timeout.count() > 0 &&
                           now - c.progress >= options_.send_timeout;
      if (stalled || c.finished()) c.drop = true;
    }
    std::erase_if(conns_, dropped);
  }
  conns_.clear();
}

void Server::accept_all() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      const int err = errno;
      if (err == EINTR || err == ECONNABORTED) continue;
      if (err == EMFILE || err == ENFILE || err == ENOBUFS || err == ENOMEM) {
        // Transient resource exhaustion: leave the listen socket out of
        // the poll set for 50 ms rather than spin, or stop accepting for
        // good and look healthy while never accepting again.
        accept_resume_ =
            std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
      } else if (err != EAGAIN && err != EWOULDBLOCK) {
        ::close(listen_fd_);  // fatally broken: stop accepting
        listen_fd_ = -1;
      }
      return;
    }
    if (stop_requested_) {
      ::close(fd);
      continue;
    }
    const std::uint64_t id = next_conn_id_++;
    conns_.emplace(id, std::make_unique<Connection>(fd, id));
    connections_.inc();
  }
}

void Server::read_from(Connection& c) {
  Frame frame;
  // Reading until a short read drains what the peer sent before poll
  // reported it; the cap keeps one flooding peer from holding the loop.
  for (int reads = 0; reads < 64; ++reads) {
    bool filled = false;
    const ssize_t n = c.in.read_some(c.fd, filled);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) c.drop = true;  // reset
      return;
    }
    for (;;) {
      try {
        if (!c.in.next(frame)) break;
      } catch (const ProtocolError&) {
        c.eof = true;  // malformed stream: read no more
        return;
      }
      try {
        handle_frame(c, frame);
      } catch (const Refusal& e) {
        reply(c, make_error(frame.seq, e.status, e.what()));
      } catch (const std::exception& e) {
        reply(c, make_error(frame.seq, StatusCode::kBadFrame, e.what()));
      }
    }
    if (n == 0) c.eof = true;
    if (!filled) return;
  }
}

void Server::handle_frame(Connection& c, Frame& frame) {
  switch (frame.type) {
    case FrameType::kHello:
      hello(c, frame);
      return;
    case FrameType::kStats: {
      const std::string text = metrics().to_prometheus();
      reply(c, make_frame(FrameType::kStatsAck, frame.seq,
                          std::vector<std::uint8_t>(text.begin(), text.end())));
      return;
    }
    case FrameType::kShutdown:
      reply(c, make_frame(FrameType::kShutdownAck, frame.seq));
      request_stop();
      return;
    case FrameType::kEncode:
    case FrameType::kDecode:
    case FrameType::kVerify:
      if (c.tenant == nullptr)
        throw Refusal(StatusCode::kBadState, "request before hello");
      admit(c, *c.tenant, frame);
      return;
    default:
      throw Refusal(StatusCode::kBadFrame, "unexpected frame type");
  }
}

std::unique_ptr<Server::Tenant> Server::make_tenant(
    const HelloRequest& h, const engine::KernelVariant* kernel) {
  auto t = std::make_unique<Tenant>();
  t->spec = h;
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
  const std::string tl = label("tenant", h.tenant);
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

void Server::hello(Connection& c, const Frame& frame) {
  // Malformed hellos throw out of here and are answered as kBadFrame.
  HelloRequest h = HelloRequest::parse(frame.payload);
  h.geometry.validate();
  if (!valid_tenant_name(h.tenant))
    throw std::invalid_argument(
        "tenant names are 1-64 chars of [A-Za-z0-9._-]");
  if (h.lanes < 1) throw std::invalid_argument("lanes must be >= 1");
  const engine::KernelVariant* kernel = &engine::resolve_kernel(h.kernel);
  if (stop_requested_)
    throw Refusal(StatusCode::kShuttingDown, "server is draining");

  auto it = tenants_.find(h.tenant);
  if (it == tenants_.end()) {
    std::unique_ptr<Tenant> t;
    try {
      t = make_tenant(h, kernel);
    } catch (const std::exception& e) {
      throw Refusal(StatusCode::kInternal, e.what());
    }
    it = tenants_.emplace(h.tenant, std::move(t)).first;
    tenants_gauge_.set(static_cast<double>(tenants_.size()));
  } else {
    // Reconnect: the spec must match the live session bit for bit.
    const HelloRequest& was = it->second->spec;
    if (was.geometry != h.geometry || was.scheme != h.scheme ||
        was.lanes != h.lanes ||
        was.reset_state_per_burst != h.reset_state_per_burst ||
        it->second->kernel != kernel)
      throw Refusal(StatusCode::kBadState,
                    "tenant '" + h.tenant + "' exists with a different spec");
  }
  c.tenant = it->second.get();
  const HelloAck ack{.build = std::string(build_version()),
                     .max_queue_requests = static_cast<std::uint32_t>(
                         options_.max_queue_requests)};
  reply(c, make_frame(FrameType::kHelloAck, frame.seq, ack.to_payload()));
}

void Server::admit(Connection& c, Tenant& tenant, Frame& frame) {
  Request rq;
  rq.type = frame.type;
  rq.seq = frame.seq;
  rq.conn = c.id;
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
  } catch (const std::exception&) {
    tenant.errors.inc();
    throw;  // answered as kBadFrame
  }
  if (stop_requested_)
    throw Refusal(StatusCode::kShuttingDown, "server is draining");
  if (tenant.queue.size() >= options_.max_queue_requests) {
    // Backpressure: bounded queue, typed rejection, engine untouched.
    tenant.busy.inc();
    BusyInfo info{static_cast<std::uint32_t>(tenant.queue.size()),
                  static_cast<std::uint32_t>(options_.max_queue_requests)};
    reply(c, make_frame(FrameType::kBusy, frame.seq, info.to_payload(),
                        StatusCode::kBusy));
    return;
  }
  switch (frame.type) {
    case FrameType::kEncode: tenant.req_encode.inc(); break;
    case FrameType::kDecode: tenant.req_decode.inc(); break;
    default: tenant.req_verify.inc(); break;
  }
  rq.enqueued = std::chrono::steady_clock::now();
  tenant.queue.push_back(std::move(rq));
  tenant.queue_depth.observe(tenant.queue.size());
  ++c.owed;
  if (!tenant.in_active) {
    tenant.in_active = true;
    active_.push_back(&tenant);
  }
}

bool Server::run_turn() {
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

  if (batch.empty()) return false;
  batches_.inc();
  batch_bursts_.observe(batch_bursts);
  process_batch(*t, batch);
  return true;
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
    for (Request& rq : run)
      respond(tenant, rq, make_error(rq.seq, StatusCode::kInternal, e.what()));
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
        tenant.decoder.apply(rq.data, ack.masks, tenant.spec.geometry, ack.tx);
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
    tenant.decoder.decode(rq.data, rq.masks, tenant.spec.geometry,
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
    tenant.decoder.apply(rq.data, tenant.mask_scratch, tenant.spec.geometry,
                         tenant.tx_scratch);
    if (options_.fault_injector)
      options_.fault_injector(tenant.spec.tenant, tenant.next_burst,
                              tenant.tx_scratch, tenant.mask_scratch);
    tenant.decoder.decode(tenant.tx_scratch, tenant.mask_scratch,
                          tenant.spec.geometry, tenant.rx_scratch);
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
  if (frame.payload.size() > kMaxPayload)
    // An over-cap response slipped past the admission-time size check.
    // The client is still waiting, so answer with a typed error (small,
    // always sendable) instead of silence.
    frame = make_error(rq.seq, StatusCode::kInternal,
                       "serve: refusing to write over-cap frame");
  if (frame.type == FrameType::kError) tenant.errors.inc();
  // A client that went away before its response is not answered; the
  // work is still done and counted.
  const auto it = conns_.find(rq.conn);
  if (it == conns_.end()) return;
  --it->second->owed;
  reply(*it->second, std::move(frame));
}

void Server::reply(Connection& c, Frame&& frame) {
  if (c.out.empty()) c.progress = std::chrono::steady_clock::now();
  const auto header = encode_frame_header(
      frame.type, frame.status, frame.seq,
      static_cast<std::uint32_t>(frame.payload.size()));
  c.out.insert(c.out.end(), header.begin(), header.end());
  c.out.insert(c.out.end(), frame.payload.begin(), frame.payload.end());
}

bool Server::flush(Connection& c) {
  // MSG_NOSIGNAL: a peer that hung up yields EPIPE, not a SIGPIPE.
  const ssize_t n = ::send(c.fd, c.out.data() + c.sent, c.out.size() - c.sent,
                           MSG_NOSIGNAL);
  if (n < 0) {
    c.blocked = true;
    return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
  }
  c.progress = std::chrono::steady_clock::now();
  c.sent += static_cast<std::size_t>(n);
  c.blocked = c.sent < c.out.size();
  if (!c.blocked) {
    // Keep the buffer for the next batch unless one reply grew it large.
    c.out.clear();
    if (c.out.capacity() > (1u << 20)) c.out.shrink_to_fit();
    c.sent = 0;
  }
  return true;
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
