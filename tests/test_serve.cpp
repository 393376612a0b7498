// Serving daemon: the framed protocol must round-trip losslessly, a
// served stream chunked over many requests must encode bit-identically
// to one offline StreamEncoder pass (state threads across requests and
// reconnects), bounded queues must reject with typed kBusy frames, DRR
// must keep a flooding tenant from inflating its neighbours' latency,
// graceful stop must answer every admitted request, and the soak — 8
// concurrent tenants, fault injection on two — must hold all of the
// above at once.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "api/geometry.hpp"
#include "engine/batch_decoder.hpp"
#include "engine/batch_encoder.hpp"
#include "engine/kernel_registry.hpp"
#include "engine/stream_encoder.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace dbi::serve {
namespace {

// ------------------------------------------------------------ protocol

TEST(Protocol, FrameRoundTripOverSocketpair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Frame sent = make_frame(FrameType::kEncode, 42,
                          std::vector<std::uint8_t>{1, 2, 3, 4, 5});
  write_frame(fds[0], sent);
  Frame got;
  ASSERT_TRUE(read_frame(fds[1], got));
  EXPECT_EQ(got.type, FrameType::kEncode);
  EXPECT_EQ(got.seq, 42u);
  EXPECT_EQ(got.payload, sent.payload);

  ::close(fds[0]);
  EXPECT_FALSE(read_frame(fds[1], got));  // clean EOF, not a throw
  ::close(fds[1]);
}

TEST(Protocol, BadMagicThrows) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::uint8_t junk[16] = {0xde, 0xad, 0xbe, 0xef};
  ASSERT_EQ(::send(fds[0], junk, sizeof(junk), 0),
            static_cast<ssize_t>(sizeof(junk)));
  Frame got;
  EXPECT_THROW((void)read_frame(fds[1], got), ProtocolError);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(Protocol, HelloPayloadRoundTrip) {
  HelloRequest h;
  h.tenant = "tenant-a";
  h.scheme = Scheme::kAcDc;
  h.geometry = Geometry::wide(32, 8);
  h.lanes = 4;
  h.reset_state_per_burst = true;
  h.kernel = "swar";
  const HelloRequest back = HelloRequest::parse(h.to_payload());
  EXPECT_EQ(back.tenant, "tenant-a");
  EXPECT_EQ(back.scheme, Scheme::kAcDc);
  EXPECT_TRUE(back.geometry.is_wide());
  EXPECT_EQ(back.geometry.width(), 32);
  EXPECT_EQ(back.lanes, 4);
  EXPECT_TRUE(back.reset_state_per_burst);
  EXPECT_EQ(back.kernel, "swar");
}

TEST(Protocol, EncodeAckPayloadRoundTrip) {
  EncodeAck ack;
  ack.burst_count = 3;
  ack.zeros = 17;
  ack.transitions = 23;
  ack.masks = {0x11, 0x22, 0x33};
  ack.tx = {9, 8, 7};
  const EncodeAck back = EncodeAck::parse(ack.to_payload());
  EXPECT_EQ(back.burst_count, 3u);
  EXPECT_EQ(back.zeros, 17u);
  EXPECT_EQ(back.transitions, 23u);
  EXPECT_EQ(back.masks, ack.masks);
  EXPECT_EQ(back.tx, ack.tx);
}

/// A frame's wire bytes: header then payload.
std::vector<std::uint8_t> wire(const Frame& f) {
  const auto header = encode_frame_header(
      f.type, f.status, f.seq, static_cast<std::uint32_t>(f.payload.size()));
  std::vector<std::uint8_t> out(header.size() + f.payload.size());
  std::copy(f.payload.begin(), f.payload.end(),
            std::copy(header.begin(), header.end(), out.begin()));
  return out;
}

TEST(Protocol, AssemblerYieldsTheSameFramesAtEveryCut) {
  // A small frame, an empty one and one whose payload spans several
  // reads, cut once at every offset: each cut yields the same frames.
  std::vector<std::uint8_t> stream;
  std::vector<Frame> sent = {
      make_frame(FrameType::kEncode, 1, std::vector<std::uint8_t>(40, 7)),
      make_frame(FrameType::kStats, 2),
      make_frame(FrameType::kDecode, 3, std::vector<std::uint8_t>(70000, 9))};
  sent[2].payload[69999] = 1;
  for (const Frame& f : sent) {
    const auto w = wire(f);
    stream.insert(stream.end(), w.begin(), w.end());
  }
  for (std::size_t cut = 0; cut <= stream.size(); cut += 1 + cut / 8) {
    FrameAssembler in;
    std::vector<Frame> got;
    Frame f;
    for (std::span<const std::uint8_t> piece :
         {std::span(stream).first(cut), std::span(stream).subspan(cut)}) {
      while (!piece.empty()) {
        piece = piece.subspan(in.feed(piece));
        while (in.next(f)) got.push_back(std::move(f));
      }
    }
    ASSERT_EQ(got.size(), sent.size()) << "cut " << cut;
    for (std::size_t i = 0; i < sent.size(); ++i) {
      EXPECT_EQ(got[i].type, sent[i].type);
      EXPECT_EQ(got[i].seq, sent[i].seq);
      EXPECT_EQ(got[i].payload, sent[i].payload) << "cut " << cut;
    }
  }
}

TEST(Protocol, AssemblerRejectsBadMagic) {
  FrameAssembler in;
  const std::uint8_t junk[16] = {0xde, 0xad, 0xbe, 0xef};
  EXPECT_EQ(in.feed(junk), sizeof(junk));
  Frame f;
  EXPECT_THROW((void)in.next(f), ProtocolError);
}

// ------------------------------------------------------------- fixture

std::string unique_socket(const char* tag) {
  static std::atomic<int> n{0};
  return (std::filesystem::temp_directory_path() /
          ("dbid_test_" + std::string(tag) + "_" +
           std::to_string(::getpid()) + "_" + std::to_string(n++) + ".sock"))
      .string();
}

struct TestServer {
  explicit TestServer(ServerOptions opt) : server(std::move(opt)) {
    server.start();
  }
  Server server;

  [[nodiscard]] Client client(const std::string& tenant,
                              const Geometry& geometry,
                              Scheme scheme = Scheme::kAc) const {
    Client::Options o;
    o.socket_path = server.options().socket_path;
    o.tenant = tenant;
    o.scheme = scheme;
    o.geometry = geometry;
    return Client::connect(o);
  }
};

/// A connection that speaks raw frames, for tests that send what the
/// Client never would.
int raw_connect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Hello on a raw connection; true when the server acked it.
bool raw_hello(int fd, const std::string& tenant, const Geometry& g) {
  HelloRequest h;
  h.tenant = tenant;
  h.geometry = g;
  write_frame(fd, make_frame(FrameType::kHello, 1, h.to_payload()));
  Frame ack;
  return read_frame(fd, ack) && ack.type == FrameType::kHelloAck;
}

std::vector<std::uint8_t> random_payload(std::size_t bytes,
                                         std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint8_t> out(bytes);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

/// One offline StreamEncoder pass over the whole payload — the ground
/// truth a served stream (any request chunking) must reproduce.
std::vector<std::uint64_t> offline_masks(const Geometry& geometry,
                                         Scheme scheme,
                                         std::span<const std::uint8_t> payload,
                                         std::size_t bursts) {
  engine::BatchEncoder encoder(scheme);
  engine::StreamEncodeOptions sopt;
  engine::StreamEncoder stream(encoder, geometry, sopt);
  const auto results = stream.encode_chunk(0, payload, bursts, true);
  std::vector<std::uint64_t> masks;
  masks.reserve(results.size());
  for (const auto& r : results) masks.push_back(r.invert_mask);
  return masks;
}

// ------------------------------------------------------- served stream

TEST(Serve, ChunkedRequestsMatchOfflineEncode) {
  const Geometry g = Geometry::narrow(8, 8);
  ServerOptions opt;
  opt.socket_path = unique_socket("chunked");
  TestServer ts(std::move(opt));

  constexpr std::size_t kBursts = 256;
  const auto bpb = static_cast<std::size_t>(g.bytes_per_burst());
  const auto payload = random_payload(kBursts * bpb, 1);
  const auto expect = offline_masks(g, Scheme::kAc, payload, kBursts);

  // Served in uneven slices: the daemon must thread BusState across
  // requests so the concatenated masks equal the one-shot encode.
  auto client = ts.client("chunked", g);
  std::vector<std::uint64_t> served;
  std::uint64_t zeros = 0;
  const std::size_t slices[] = {1, 7, 64, 184};
  std::size_t at = 0;
  for (const std::size_t n : slices) {
    const auto r = client.encode(
        std::span(payload).subspan(at * bpb, n * bpb),
        static_cast<std::uint32_t>(n));
    ASSERT_EQ(r.outcome, Client::Outcome::kOk);
    served.insert(served.end(), r.ack.masks.begin(), r.ack.masks.end());
    zeros += r.ack.zeros;
    at += n;
  }
  ASSERT_EQ(at, kBursts);
  EXPECT_EQ(served, expect);
  EXPECT_GT(zeros, 0u);
}

TEST(Serve, WantTxReturnsInvolutionOfPayload) {
  const Geometry g = Geometry::wide(32, 8);
  ServerOptions opt;
  opt.socket_path = unique_socket("wanttx");
  TestServer ts(std::move(opt));

  constexpr std::size_t kBursts = 64;
  const auto bpb = static_cast<std::size_t>(g.bytes_per_burst());
  const auto payload = random_payload(kBursts * bpb, 2);
  auto client = ts.client("wanttx", g, Scheme::kAcDc);
  const auto r = client.encode(payload, kBursts, /*want_tx=*/true);
  ASSERT_EQ(r.outcome, Client::Outcome::kOk);
  ASSERT_EQ(r.ack.tx.size(), payload.size());

  // Decoding the returned wire bytes with the returned masks (on the
  // server, exercising kDecode too) must recover the payload exactly.
  const auto d = client.decode(r.ack.tx, r.ack.masks, kBursts);
  ASSERT_EQ(d.outcome, Client::Outcome::kOk);
  EXPECT_EQ(d.payload, payload);
}

TEST(Serve, ReconnectKeepsTenantState) {
  const Geometry g = Geometry::narrow(8, 8);
  ServerOptions opt;
  opt.socket_path = unique_socket("reconnect");
  TestServer ts(std::move(opt));

  constexpr std::size_t kBursts = 128;
  const auto bpb = static_cast<std::size_t>(g.bytes_per_burst());
  const auto payload = random_payload(kBursts * bpb, 3);
  const auto expect = offline_masks(g, Scheme::kAc, payload, kBursts);

  std::vector<std::uint64_t> served;
  {
    auto first = ts.client("sticky", g);
    const auto r = first.encode(std::span(payload).first(64 * bpb), 64);
    ASSERT_EQ(r.outcome, Client::Outcome::kOk);
    served.insert(served.end(), r.ack.masks.begin(), r.ack.masks.end());
  }  // connection dropped; tenant state must survive
  {
    auto second = ts.client("sticky", g);
    const auto r = second.encode(std::span(payload).subspan(64 * bpb), 64);
    ASSERT_EQ(r.outcome, Client::Outcome::kOk);
    served.insert(served.end(), r.ack.masks.begin(), r.ack.masks.end());
  }
  EXPECT_EQ(served, expect);

  // Reconnecting under the same name with a different spec is a typed
  // error, not silent state reuse.
  Client::Options o;
  o.socket_path = ts.server.options().socket_path;
  o.tenant = "sticky";
  o.scheme = Scheme::kDc;  // mismatch
  o.geometry = g;
  try {
    (void)Client::connect(o);
    FAIL() << "spec mismatch must be rejected";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.status(), StatusCode::kBadState);
  }
}

TEST(Serve, DataRequestBeforeHelloIsBadState) {
  ServerOptions opt;
  opt.socket_path = unique_socket("nohello");
  TestServer ts(std::move(opt));

  auto control = Client::connect_control(ts.server.options().socket_path);
  const auto payload = random_payload(8, 4);
  try {
    (void)control.encode(payload, 1);
    FAIL() << "encode before hello must be rejected";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.status(), StatusCode::kBadState);
  }
}

TEST(Serve, StatsFrameExposesBuildAndTenantSeries) {
  const Geometry g = Geometry::narrow(8, 8);
  ServerOptions opt;
  opt.socket_path = unique_socket("stats");
  TestServer ts(std::move(opt));

  auto client = ts.client("metered", g);
  const auto payload = random_payload(32 * 8, 5);
  ASSERT_EQ(client.encode(payload, 32).outcome, Client::Outcome::kOk);

  auto control = Client::connect_control(ts.server.options().socket_path);
  const std::string text = control.stats();
  EXPECT_NE(text.find("dbi_build_info{version="), std::string::npos);
  EXPECT_NE(text.find("dbi_serve_requests_total{tenant=\"metered\""),
            std::string::npos);
  EXPECT_NE(text.find("dbi_serve_request_latency_ns{tenant=\"metered\""),
            std::string::npos);

  const obs::Snapshot snap = ts.server.metrics();
  EXPECT_EQ(snap.value("dbi_serve_bursts_total", "tenant=\"metered\""), 32.0);
  EXPECT_EQ(snap.value("dbi_serve_tenants"), 1.0);
}

// --------------------------------------------------------- backpressure

TEST(Serve, FullQueueRejectsWithBusy) {
  const Geometry g = Geometry::narrow(8, 8);
  ServerOptions opt;
  opt.socket_path = unique_socket("busy");
  opt.max_queue_requests = 0;  // admit nothing: every data frame is kBusy
  TestServer ts(std::move(opt));

  auto client = ts.client("throttled", g);
  EXPECT_EQ(client.max_queue_requests(), 0u);
  const auto payload = random_payload(8, 6);
  const auto r = client.encode(payload, 1);
  EXPECT_EQ(r.outcome, Client::Outcome::kBusy);

  const obs::Snapshot snap = ts.server.metrics();
  EXPECT_EQ(snap.value("dbi_serve_busy_total", "tenant=\"throttled\""), 1.0);
}

TEST(Serve, PipelinedFloodSeesBusyThenRecovers) {
  const Geometry g = Geometry::narrow(8, 8);
  ServerOptions opt;
  opt.socket_path = unique_socket("flood");
  opt.max_queue_requests = 2;
  opt.batch_delay = std::chrono::milliseconds(5);  // force queue build-up
  TestServer ts(std::move(opt));

  auto client = ts.client("flood", g);
  const auto payload = random_payload(8, 7);
  constexpr int kInFlight = 16;
  for (int i = 0; i < kInFlight; ++i)
    (void)client.submit_encode(payload, 1);
  int ok = 0, busy = 0;
  for (int i = 0; i < kInFlight; ++i) {
    const auto r = client.next_response();
    (r.outcome == Client::Outcome::kOk ? ok : busy)++;
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(busy, 0);

  // Backpressure is transient: a later synchronous request succeeds.
  const auto r = client.encode(payload, 1);
  EXPECT_EQ(r.outcome, Client::Outcome::kOk);
}

TEST(Serve, GracefulStopAnswersEveryAdmittedRequest) {
  const Geometry g = Geometry::narrow(8, 8);
  ServerOptions opt;
  opt.socket_path = unique_socket("drain");
  opt.batch_delay = std::chrono::milliseconds(2);
  auto ts = std::make_unique<TestServer>(std::move(opt));

  auto barrier = Client::connect_control(ts->server.options().socket_path);
  auto client = ts->client("drainee", g);
  const auto payload = random_payload(8 * 8, 8);
  constexpr int kInFlight = 8;
  for (int i = 0; i < kInFlight; ++i)
    (void)client.submit_encode(payload, 8);
  // stop() owes answers to admitted requests only; one still unread in
  // the socket when the drain begins is refused. A round trip on the
  // older connection is the barrier: the loop reads everything sent
  // before it ahead of its reply.
  (void)barrier.stats();
  ASSERT_EQ(ts->server.metrics().value("dbi_serve_requests_total",
                                       "tenant=\"drainee\",op=\"encode\""),
            kInFlight);

  // stop() must finish the already-admitted requests before tearing
  // down the readers: all responses (acks or typed rejections) arrive.
  std::thread stopper([&] { ts->server.stop(); });
  int answered = 0;
  try {
    for (int i = 0; i < kInFlight; ++i) {
      (void)client.next_response();
      ++answered;
    }
  } catch (const ServerError&) {
    ++answered;  // a typed kShuttingDown rejection still answers it
  } catch (const ProtocolError&) {
    // EOF after the drain — only acceptable once responses stopped.
  }
  stopper.join();
  EXPECT_EQ(answered, kInFlight);
  EXPECT_FALSE(ts->server.running());
}

TEST(Serve, OverCapResponseRejectedAtAdmission) {
  // A want_tx encode whose ack (masks + echoed tx) would exceed the
  // 64 MiB frame cap must be rejected with a typed kBadFrame at
  // admission — not worked on and then silently unanswerable.
  const Geometry g = Geometry::narrow(8, 8);
  ServerOptions opt;
  opt.socket_path = unique_socket("overcap");
  TestServer ts(std::move(opt));

  auto client = ts.client("overcap", g);
  const auto bpb = static_cast<std::size_t>(g.bytes_per_burst());
  // ack = 28 + bursts*8 (masks) + bursts*bpb (tx): past the cap while
  // the request payload itself still fits.
  constexpr std::uint32_t kBursts = 4'194'303;
  const std::vector<std::uint8_t> payload(kBursts * bpb, 0xA5);
  try {
    (void)client.encode(payload, kBursts, /*want_tx=*/true);
    FAIL() << "over-cap want_tx response was not rejected";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.status(), StatusCode::kBadFrame);
  }
  // The rejection is per-request: the connection stays usable.
  const auto r = client.encode(std::span(payload).first(8 * bpb), 8);
  EXPECT_EQ(r.outcome, Client::Outcome::kOk);
}

std::size_t entry_count(const char* dir) {
  std::size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++n;
  }
  return n;
}

std::size_t open_fd_count() { return entry_count("/proc/self/fd"); }

TEST(Serve, DisconnectedConnectionsAreReaped) {
  const Geometry g = Geometry::narrow(8, 8);
  ServerOptions opt;
  opt.socket_path = unique_socket("reap");
  TestServer ts(std::move(opt));
  auto barrier = Client::connect_control(ts.server.options().socket_path);
  (void)barrier.stats();  // accepted: its server-side fd is in the baseline
  const std::size_t baseline = open_fd_count();

  // Each round opens a connection (one fd on each side) and drops it;
  // the server must return to the baseline fd count instead of holding
  // every disconnected socket until shutdown.
  const auto payload = random_payload(8 * 8, 9);
  for (int i = 0; i < 16; ++i) {
    auto client = ts.client("reap", g);
    const auto r = client.encode(payload, 8);
    ASSERT_EQ(r.outcome, Client::Outcome::kOk);
  }
  // The older connection's round trip is answered only after the loop
  // handled every hang-up that came before it.
  (void)barrier.stats();
  EXPECT_LE(open_fd_count(), baseline);
}

TEST(Serve, SlowConsumerIsDroppedWithoutStallingNeighbours) {
  const Geometry g = Geometry::narrow(8, 8);
  ServerOptions opt;
  opt.socket_path = unique_socket("slowpeer");
  opt.send_timeout = std::chrono::milliseconds(200);
  opt.max_queue_requests = 1024;
  TestServer ts(std::move(opt));
  const auto bpb = static_cast<std::size_t>(g.bytes_per_burst());

  // Raw flooding connection: hello, then pipeline want_tx encodes and
  // never read a response, so the server-side socket buffer fills.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, ts.server.options().socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  HelloRequest h;
  h.tenant = "slowpeer";
  h.geometry = g;
  write_frame(fd, make_frame(FrameType::kHello, 1, h.to_payload()));
  Frame ack;
  ASSERT_TRUE(read_frame(fd, ack));
  ASSERT_EQ(ack.type, FrameType::kHelloAck);

  EncodeRequest req;
  req.flags = EncodeRequest::kWantTx;
  req.burst_count = 64;
  const auto payload = random_payload(64 * bpb, 11);
  req.payload = payload;
  const auto reqp = req.to_payload();
  try {
    for (int i = 0; i < 512; ++i)
      write_frame(fd, make_frame(FrameType::kEncode, 100 + i, reqp));
  } catch (const std::system_error&) {
    // The server already dropped us mid-flood — that's the fix working.
  }

  // While the flooder never reads, a neighbour must still get served:
  // before the send timeout existed, the scheduler blocked forever on
  // the flooder's full socket and every other tenant starved.
  auto victim = ts.client("victim", g);
  const auto vp = random_payload(32 * bpb, 12);
  const auto r = victim.encode(vp, 32);
  EXPECT_EQ(r.outcome, Client::Outcome::kOk);

  // The flooder's connection ends in a drop (EOF / reset after the
  // buffered responses drain), never an open-ended hang.
  timeval tv{};
  tv.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::vector<std::uint8_t> buf(65536);
  ssize_t m;
  do {
    m = ::recv(fd, buf.data(), buf.size(), 0);
  } while (m > 0);
  EXPECT_LE(m, 0);
  ::close(fd);
}

TEST(Serve, StalledRepliesDropTheConnectionAfterSendTimeout) {
  const Geometry g = Geometry::narrow(8, 8);
  ServerOptions opt;
  opt.socket_path = unique_socket("stalled");
  opt.send_timeout = std::chrono::milliseconds(200);
  opt.max_queue_requests = 1024;
  TestServer ts(std::move(opt));
  const auto bpb = static_cast<std::size_t>(g.bytes_per_burst());

  // More acks than the socket buffer holds, and the client never reads:
  // the queued replies make no progress, so the server hangs up, while
  // a neighbour is served meanwhile.
  const int fd = raw_connect(ts.server.options().socket_path);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(raw_hello(fd, "stalled", g));
  EncodeRequest req;
  req.flags = EncodeRequest::kWantTx;
  req.burst_count = 64;
  const auto payload = random_payload(64 * bpb, 13);
  req.payload = payload;
  const auto reqp = req.to_payload();
  for (int i = 0; i < 512; ++i)
    write_frame(fd, make_frame(FrameType::kEncode, 100 + i, reqp));

  auto victim = ts.client("victim", g);
  EXPECT_EQ(victim.encode(random_payload(32 * bpb, 14), 32).outcome,
            Client::Outcome::kOk);

  // Wait for the hang-up without reading (a read would be progress).
  pollfd p{fd, POLLRDHUP, 0};
  ASSERT_EQ(::poll(&p, 1, 10000), 1);
  EXPECT_NE(p.revents & (POLLHUP | POLLRDHUP), 0);
  ::close(fd);
}

std::size_t thread_count() { return entry_count("/proc/self/task"); }

TEST(Serve, ThreadsDoNotGrowWithConnections) {
  // One loop thread plus the pool's workers, whatever the connection
  // count: no accept thread, scheduler thread or reader per connection.
  const Geometry g = Geometry::narrow(8, 8);
  for (const int workers : {1, 2}) {
    const std::size_t before = thread_count();
    ServerOptions opt;
    opt.socket_path = unique_socket("threads");
    opt.workers = workers;
    TestServer ts(std::move(opt));
    const std::size_t expect = workers >= 2 ? 1 + workers : 1;
    EXPECT_EQ(thread_count() - before, expect) << "workers " << workers;
    std::vector<Client> clients;
    for (int i = 0; i < 16; ++i)
      clients.push_back(ts.client(std::to_string(i), g));
    EXPECT_EQ(thread_count() - before, expect) << "workers " << workers;
  }
}

std::size_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t size = 0, resident = 0;
  statm >> size >> resident;
  return resident * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

TEST(Serve, BareHeadersCommitNoPayloadMemory) {
  // A header that claims the 64 MiB cap and then stalls must not make
  // the server allocate the claimed payload up front.
  const Geometry g = Geometry::narrow(8, 8);
  ServerOptions opt;
  opt.socket_path = unique_socket("bareheader");
  TestServer ts(std::move(opt));
  const auto bpb = static_cast<std::size_t>(g.bytes_per_burst());
  auto neighbour = ts.client("neighbour", g);
  const auto payload = random_payload(16 * bpb, 15);
  ASSERT_EQ(neighbour.encode(payload, 16).outcome, Client::Outcome::kOk);
  const std::size_t before = resident_bytes();

  int fds[2];
  for (int& fd : fds) {
    fd = raw_connect(ts.server.options().socket_path);
    ASSERT_GE(fd, 0);
    const auto header =
        encode_frame_header(FrameType::kEncode, StatusCode::kOk, 1,
                            kMaxPayload);
    ASSERT_EQ(::send(fd, header.data(), header.size(), 0),
              static_cast<ssize_t>(header.size()));
  }
  // The neighbour is still served. Its first round trip is already a
  // barrier for the loop, which reads both headers before replying; the
  // rest keep it busy long enough for a server that reads on threads of
  // its own to have acted on the headers as well.
  for (int i = 0; i < 512; ++i)
    ASSERT_EQ(neighbour.encode(payload, 16).outcome, Client::Outcome::kOk);
  const std::size_t after = resident_bytes();
  EXPECT_LT(after, before + (8u << 20))
      << "resident memory grew by " << (after - before) / 1024 << " KiB";
  for (const int fd : fds) ::close(fd);
}

TEST(Serve, PipelinedLargeFramesAreAnswered) {
  // 8 x 256 KiB of requests written before reading any ack: more than
  // the socket buffers hold in both directions, so a server that waited
  // on its sends would deadlock against this client's writes.
  const Geometry g = Geometry::narrow(8, 8);
  ServerOptions opt;
  opt.socket_path = unique_socket("pipelined");
  TestServer ts(std::move(opt));
  const auto bpb = static_cast<std::size_t>(g.bytes_per_burst());
  constexpr std::uint32_t kBursts = 32768;
  constexpr int kFrames = 8;
  const auto payload = random_payload(kFrames * kBursts * bpb, 16);
  const auto masks = offline_masks(g, Scheme::kAc, payload, kFrames * kBursts);

  const int fd = raw_connect(ts.server.options().socket_path);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(raw_hello(fd, "pipelined", g));
  for (int i = 0; i < kFrames; ++i) {
    EncodeRequest req;
    req.flags = EncodeRequest::kWantTx;
    req.burst_count = kBursts;
    req.payload = std::span(payload).subspan(i * kBursts * bpb, kBursts * bpb);
    write_frame(fd, make_frame(FrameType::kEncode, 10 + i, req.to_payload()));
  }
  engine::BatchDecoder decoder;
  for (int i = 0; i < kFrames; ++i) {
    Frame f;
    ASSERT_TRUE(read_frame(fd, f)) << "ack " << i;
    ASSERT_EQ(f.type, FrameType::kEncodeAck) << "ack " << i;
    EXPECT_EQ(f.seq, static_cast<std::uint32_t>(10 + i));
    const EncodeAck ack = EncodeAck::parse(f.payload);
    const auto want = std::span(masks).subspan(i * kBursts, kBursts);
    EXPECT_TRUE(std::equal(ack.masks.begin(), ack.masks.end(), want.begin(),
                           want.end()))
        << "ack " << i;
    std::vector<std::uint8_t> tx(kBursts * bpb);
    decoder.apply(std::span(payload).subspan(i * kBursts * bpb, kBursts * bpb),
                  want, g, tx);
    EXPECT_EQ(ack.tx, tx) << "ack " << i;
  }
  ::close(fd);
}

TEST(Serve, FramesWrittenOneByteAtATimeAreAnsweredBitExact) {
  const Geometry g = Geometry::narrow(8, 8);
  ServerOptions opt;
  opt.socket_path = unique_socket("bytewise");
  TestServer ts(std::move(opt));
  const auto bpb = static_cast<std::size_t>(g.bytes_per_burst());
  const int fd = raw_connect(ts.server.options().socket_path);
  ASSERT_GE(fd, 0);
  const auto trickle = [fd](const Frame& f) {
    for (const std::uint8_t b : wire(f))
      ASSERT_EQ(::send(fd, &b, 1, 0), 1);
  };

  HelloRequest h;
  h.tenant = "bytewise";
  h.geometry = g;
  trickle(make_frame(FrameType::kHello, 1, h.to_payload()));
  Frame f;
  ASSERT_TRUE(read_frame(fd, f));
  ASSERT_EQ(f.type, FrameType::kHelloAck);

  constexpr std::uint32_t kBursts = 48;
  const auto payload = random_payload(kBursts * bpb, 17);
  EncodeRequest req;
  req.burst_count = kBursts;
  req.payload = payload;
  trickle(make_frame(FrameType::kEncode, 2, req.to_payload()));
  ASSERT_TRUE(read_frame(fd, f));
  ASSERT_EQ(f.type, FrameType::kEncodeAck);
  EXPECT_EQ(f.seq, 2u);
  EXPECT_EQ(EncodeAck::parse(f.payload).masks,
            offline_masks(g, Scheme::kAc, payload, kBursts));
  ::close(fd);
}

TEST(Serve, BrokenConnectionsAreDroppedWhileNeighboursAreServed) {
  const Geometry g = Geometry::narrow(8, 8);
  ServerOptions opt;
  opt.socket_path = unique_socket("broken");
  TestServer ts(std::move(opt));
  const auto bpb = static_cast<std::size_t>(g.bytes_per_burst());
  auto neighbour = ts.client("neighbour", g);
  const auto payload = random_payload(16 * bpb, 18);
  const std::size_t baseline = open_fd_count();

  EncodeRequest req;
  req.burst_count = 16;
  req.payload = payload;
  const auto encode = wire(make_frame(FrameType::kEncode, 2, req.to_payload()));
  const std::uint8_t junk[kFrameHeaderBytes] = {0xde, 0xad, 0xbe, 0xef};
  const std::size_t cuts[] = {7, kFrameHeaderBytes + 40};
  for (const std::size_t cut : cuts) {
    // Closes mid-header, then mid-payload.
    const int fd = raw_connect(ts.server.options().socket_path);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(raw_hello(fd, "broken", g));
    ASSERT_EQ(::send(fd, encode.data(), cut, 0), static_cast<ssize_t>(cut));
    ::close(fd);
    EXPECT_EQ(neighbour.encode(payload, 16).outcome, Client::Outcome::kOk);
  }
  // A bad magic: the server hangs up.
  const int fd = raw_connect(ts.server.options().socket_path);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::send(fd, junk, sizeof(junk), 0),
            static_cast<ssize_t>(sizeof(junk)));
  std::uint8_t byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);

  // The neighbour's round trip is the barrier for every hang-up above.
  EXPECT_EQ(neighbour.encode(payload, 16).outcome, Client::Outcome::kOk);
  EXPECT_LE(open_fd_count(), baseline);
}

// ---------------------------------------------------------------- soak

TEST(ServeSoak, EightTenantsWithFaultInjectionAndIsolation) {
  const Geometry g = Geometry::narrow(8, 8);
  ServerOptions opt;
  opt.socket_path = unique_socket("soak");
  opt.max_queue_requests = 64;
  opt.quantum_bursts = 256;
  opt.max_batch_bursts = 1024;
  // Corrupt one wire byte per verify request for tenants named fault-*:
  // their round trips must report mismatches while every other tenant
  // stays bit-exact on the same shared scheduler and pool.
  opt.fault_injector = [](std::string_view tenant, std::int64_t,
                          std::span<std::uint8_t> tx,
                          std::span<std::uint64_t>) {
    if (tenant.substr(0, 6) == "fault-" && !tx.empty()) tx[0] ^= 0x40;
  };
  TestServer ts(std::move(opt));

  constexpr int kTenants = 8;
  constexpr int kRequests = 12;
  constexpr std::size_t kBurstsPerRequest = 96;
  const auto bpb = static_cast<std::size_t>(g.bytes_per_burst());

  struct Outcome {
    bool ok = true;
    std::uint64_t mismatched = 0;
    std::vector<std::uint64_t> masks;
    std::string error;
  };
  std::vector<Outcome> outcomes(kTenants);
  std::vector<std::vector<std::uint8_t>> payloads(kTenants);
  for (int t = 0; t < kTenants; ++t)
    payloads[t] = random_payload(kRequests * kBurstsPerRequest * bpb,
                                 1000 + static_cast<std::uint64_t>(t));

  std::vector<std::thread> tenants;
  for (int t = 0; t < kTenants; ++t) {
    tenants.emplace_back([&, t] {
      Outcome& out = outcomes[t];
      try {
        const bool faulty = t < 2;
        const std::string name =
            (faulty ? "fault-" : "clean-") + std::to_string(t);
        auto client = ts.client(name, g);
        for (int q = 0; q < kRequests; ++q) {
          const auto slice = std::span(payloads[t]).subspan(
              static_cast<std::size_t>(q) * kBurstsPerRequest * bpb,
              kBurstsPerRequest * bpb);
          if (q % 3 == 2) {  // every third request round-trips server-side
            Client::VerifyResult r;
            do {
              r = client.verify(slice, kBurstsPerRequest);
            } while (r.outcome == Client::Outcome::kBusy);
            out.ok = out.ok && r.ack.ok;
            out.mismatched += r.ack.mismatched_bytes;
          } else {
            Client::EncodeResult r;
            do {
              r = client.encode(slice, kBurstsPerRequest);
            } while (r.outcome == Client::Outcome::kBusy);
            out.masks.insert(out.masks.end(), r.ack.masks.begin(),
                             r.ack.masks.end());
          }
        }
      } catch (const std::exception& e) {
        out.ok = false;
        out.error = e.what();
      }
    });
  }
  for (auto& th : tenants) th.join();

  for (int t = 0; t < kTenants; ++t) {
    const Outcome& out = outcomes[t];
    ASSERT_TRUE(out.error.empty()) << "tenant " << t << ": " << out.error;
    if (t < 2) {
      // Faulted tenants: every verify saw the corrupted wire byte.
      EXPECT_FALSE(out.ok) << "tenant " << t;
      EXPECT_GT(out.mismatched, 0u) << "tenant " << t;
    } else {
      EXPECT_TRUE(out.ok) << "tenant " << t;
      EXPECT_EQ(out.mismatched, 0u) << "tenant " << t;
    }
    // Interleaved scheduling must not leak state between tenants: each
    // tenant's concatenated masks equal its own offline single pass
    // (verify requests advance state exactly like encode, so the
    // offline reference spans the full payload).
    const auto expect = offline_masks(g, Scheme::kAc, payloads[t],
                                      kRequests * kBurstsPerRequest);
    std::vector<std::uint64_t> expect_encoded;
    for (int q = 0; q < kRequests; ++q) {
      if (q % 3 == 2) continue;
      const auto begin =
          expect.begin() +
          static_cast<std::ptrdiff_t>(q * kBurstsPerRequest) * g.groups();
      expect_encoded.insert(
          expect_encoded.end(), begin,
          begin + static_cast<std::ptrdiff_t>(kBurstsPerRequest) * g.groups());
    }
    EXPECT_EQ(out.masks, expect_encoded) << "tenant " << t;
  }

  const obs::Snapshot snap = ts.server.metrics();
  EXPECT_GE(snap.value("dbi_serve_tenants"), 8.0);
  EXPECT_EQ(snap.value("dbi_serve_errors_total", "tenant=\"clean-7\""), 0.0);
}

TEST(ServeSoak, FloodingTenantDoesNotInflateNeighbourLatency) {
  const Geometry g = Geometry::narrow(8, 8);
  ServerOptions opt;
  opt.socket_path = unique_socket("isolation");
  opt.max_queue_requests = 64;
  opt.quantum_bursts = 64;
  opt.max_batch_bursts = 256;
  opt.batch_delay = std::chrono::microseconds(500);
  TestServer ts(std::move(opt));

  const auto bpb = static_cast<std::size_t>(g.bytes_per_burst());
  std::atomic<bool> stop{false};

  // The flooder keeps 32 large requests in flight for the whole run.
  std::thread flooder([&] {
    auto client = ts.client("flood", g);
    const auto payload = random_payload(64 * bpb, 42);
    constexpr int kWindow = 32;
    for (int i = 0; i < kWindow; ++i) (void)client.submit_encode(payload, 64);
    while (!stop.load()) {
      (void)client.next_response();
      (void)client.submit_encode(payload, 64);
    }
    for (int i = 0; i < kWindow; ++i) (void)client.next_response();
  });

  // Victims do small synchronous requests — with DRR each waits at
  // most one quantum of the flooder, never its whole backlog.
  std::vector<std::thread> victims;
  for (int v = 0; v < 3; ++v) {
    victims.emplace_back([&, v] {
      auto client = ts.client("victim-" + std::to_string(v), g);
      const auto payload =
          random_payload(4 * bpb, 100 + static_cast<std::uint64_t>(v));
      for (int q = 0; q < 24; ++q) {
        Client::EncodeResult r;
        do {
          r = client.encode(payload, 4);
        } while (r.outcome == Client::Outcome::kBusy);
      }
    });
  }
  for (auto& th : victims) th.join();
  stop.store(true);
  flooder.join();

  const obs::Snapshot snap = ts.server.metrics();
  const obs::MetricPoint* flood =
      snap.find("dbi_serve_request_latency_ns", "tenant=\"flood\"");
  ASSERT_NE(flood, nullptr);
  for (int v = 0; v < 3; ++v) {
    const obs::MetricPoint* victim =
        snap.find("dbi_serve_request_latency_ns",
                  "tenant=\"victim-" + std::to_string(v) + "\"");
    ASSERT_NE(victim, nullptr);
    // The flooder keeps ~32 requests queued; a victim's p99 must stay
    // below the flooder's (its requests jump the backlog via DRR).
    EXPECT_LT(victim->p99, flood->p99) << "victim-" << v;
  }
}

}  // namespace
}  // namespace dbi::serve
