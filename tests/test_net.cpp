// Socket transport suite (src/net), single-process half: the wire format
// is fuzzed directly (truncation, bit flips, oversized length prefixes —
// the decoder must reject loudly, never over-allocate, never hang), the
// handshake is attacked with a fake peer (mid-handshake disconnect, mesh
// size mismatch), and full UDS meshes run with every rank endpoint on a
// thread of this process — same sockets, same frames as the multi-process
// suite (test_dist.cpp), but debuggable in one address space.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "net/peer_mesh.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "resilience/fault.hpp"
#include "resilience/stats.hpp"
#include "resilience/watchdog.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/perturb.hpp"

using namespace ptlr;
using net::Frame;
using net::FrameDecoder;
using net::FrameType;
using rt::dist::make_tag;

namespace {

// Fresh UDS rendezvous directory per test.
std::string make_mesh_dir() {
  char tmpl[] = "/tmp/ptlr-net-test-XXXXXX";
  EXPECT_NE(mkdtemp(tmpl), nullptr);
  return tmpl;
}

void remove_mesh_dir(const std::string& dir, int nranks) {
  for (int r = 0; r < nranks; ++r)
    ::unlink((dir + "/ptlr." + std::to_string(r) + ".sock").c_str());
  ::rmdir(dir.c_str());
}

net::NetConfig uds_config(const std::string& dir, int rank, int nranks) {
  net::NetConfig cfg;
  cfg.kind = net::NetConfig::Kind::kUds;
  cfg.dir = dir;
  cfg.rank = rank;
  cfg.nranks = nranks;
  cfg.connect_timeout_ms = 10000;
  cfg.rto_ms = 10;
  return cfg;
}

Frame sample_frame() {
  Frame f;
  f.type = FrameType::kMsg;
  f.flags = net::kFlagDropRetransmit;
  f.from = 3;
  f.id = 0x0123456789ABCDEFull;
  f.tag = make_tag(1, 4, 7, 2);
  f.payload = {'t', 'i', 'l', 'e', '\0', 'x'};
  return f;
}

resil::WatchdogConfig watchdog_ms(long long ms) {
  resil::WatchdogConfig w;
  w.deadline_ms = ms;
  return w;
}

// Quiet defaults: no faults, no chaos, generous watchdog.
struct TransportSet {
  std::vector<std::unique_ptr<net::SocketTransport>> t;

  TransportSet(const std::string& dir, int nranks,
               const resil::FaultConfig& faults = resil::FaultConfig{},
               long long watchdog = 20000) {
    t.resize(static_cast<std::size_t>(nranks));
    std::vector<std::thread> builders;
    builders.reserve(t.size());
    for (int r = 0; r < nranks; ++r)
      builders.emplace_back([&, r] {
        t[static_cast<std::size_t>(r)] = std::make_unique<net::SocketTransport>(
            uds_config(dir, r, nranks), rt::PerturbConfig{}, faults,
            watchdog_ms(watchdog));
      });
    for (auto& b : builders) b.join();
    for (const auto& p : t) EXPECT_NE(p, nullptr);
  }
};

// drain() is collective — a BYE exchange, like MPI_Finalize — so the
// endpoints of a mesh must drain concurrently, as real rank processes do.
void drain_all(TransportSet& set) {
  std::vector<std::thread> drains;
  drains.reserve(set.t.size());
  for (auto& p : set.t) drains.emplace_back([&p] { p->drain(); });
  for (auto& th : drains) th.join();
}

}  // namespace

// ------------------------------------------------------------ wire format

TEST(Wire, FrameRoundTripsThroughDecoder) {
  const Frame f = sample_frame();
  const std::vector<char> bytes = net::encode_frame(f);
  ASSERT_EQ(bytes.size(), net::kHeaderBytes + f.payload.size());

  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  const auto got = dec.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, f.type);
  EXPECT_EQ(got->flags, f.flags);
  EXPECT_EQ(got->from, f.from);
  EXPECT_EQ(got->id, f.id);
  EXPECT_EQ(got->tag, f.tag);
  EXPECT_EQ(got->payload, f.payload);
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(Wire, DecoderReassemblesByteAtATime) {
  std::vector<char> stream;
  for (int k = 0; k < 3; ++k) {
    Frame f = sample_frame();
    f.id = static_cast<std::uint64_t>(k + 1);
    const auto b = net::encode_frame(f);
    stream.insert(stream.end(), b.begin(), b.end());
  }
  FrameDecoder dec;
  std::vector<Frame> got;
  for (const char c : stream) {
    dec.feed(&c, 1);
    while (auto f = dec.next()) got.push_back(std::move(*f));
  }
  ASSERT_EQ(got.size(), 3u);
  for (int k = 0; k < 3; ++k)
    EXPECT_EQ(got[static_cast<std::size_t>(k)].id,
              static_cast<std::uint64_t>(k + 1));
}

TEST(Wire, TruncatedFrameWaitsWithoutDelivering) {
  const auto bytes = net::encode_frame(sample_frame());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    FrameDecoder dec;
    dec.feed(bytes.data(), cut);
    EXPECT_FALSE(dec.next().has_value()) << "cut at " << cut;
    // The rest arrives: the frame completes.
    dec.feed(bytes.data() + cut, bytes.size() - cut);
    EXPECT_TRUE(dec.next().has_value()) << "cut at " << cut;
  }
}

TEST(Wire, HeaderBitFlipsNeverCrashOrOverallocate) {
  const auto bytes = net::encode_frame(sample_frame());
  int rejected = 0;
  for (std::size_t byte = 0; byte < net::kHeaderBytes; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<char> corrupt = bytes;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      FrameDecoder dec;
      dec.feed(corrupt.data(), corrupt.size());
      try {
        // Either a loud reject, or a structurally valid parse (flips in
        // flags/from/id/tag/payload are application-level data the header
        // cannot vouch for) — but NEVER a crash, hang, or allocation
        // bigger than the bytes actually fed.
        while (dec.next().has_value()) {
        }
        EXPECT_LE(dec.buffered(), corrupt.size());
      } catch (const Error&) {
        ++rejected;
      }
    }
  }
  // Magic (32 bits) and version (8) flips must all reject; type rejects
  // for most flips. The battery keeps the exact count honest.
  EXPECT_GE(rejected, 40);
}

TEST(Wire, OversizedLengthPrefixRejectsBeforePayloadArrives) {
  auto bytes = net::encode_frame(sample_frame());
  // Length prefix lives at offset 12..15 (little-endian): claim ~4 GiB.
  bytes[12] = bytes[13] = bytes[14] = static_cast<char>(0xFF);
  bytes[15] = static_cast<char>(0x7F);
  bytes.resize(net::kHeaderBytes);  // header only — payload "in flight"
  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  // Must throw NOW, from the header alone: waiting for the bogus payload
  // would hang the receiver, allocating for it would OOM on garbage.
  EXPECT_THROW(dec.next(), Error);
}

TEST(Wire, MaxPayloadBoundaryIsExact) {
  auto bytes = net::encode_frame(sample_frame());
  const std::uint32_t limit = net::kMaxFramePayload;
  for (int i = 0; i < 4; ++i)
    bytes[12 + i] = static_cast<char>((limit >> (8 * i)) & 0xFF);
  FrameDecoder at_limit;
  at_limit.feed(bytes.data(), net::kHeaderBytes);
  EXPECT_FALSE(at_limit.next().has_value());  // waits for payload: legal

  const std::uint32_t over = limit + 1;
  for (int i = 0; i < 4; ++i)
    bytes[12 + i] = static_cast<char>((over >> (8 * i)) & 0xFF);
  FrameDecoder over_limit;
  over_limit.feed(bytes.data(), net::kHeaderBytes);
  EXPECT_THROW(over_limit.next(), Error);
}

TEST(Wire, HelloRoundTripsAndRejectsWrongSize) {
  const net::Hello h{net::kProtocolVersion, 4, net::build_hash()};
  const auto bytes = net::encode_hello(h, 2);
  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  const auto f = dec.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, FrameType::kHello);
  EXPECT_EQ(f->from, 2);
  const net::Hello back = net::decode_hello(*f);
  EXPECT_EQ(back.protocol, h.protocol);
  EXPECT_EQ(back.nranks, h.nranks);
  EXPECT_EQ(back.build, h.build);

  Frame bad = *f;
  bad.payload = bad.payload.prefix(bad.payload.size() - 1);
  EXPECT_THROW(net::decode_hello(bad), Error);
}

TEST(Wire, BuildHashIsStableWithinProcess) {
  EXPECT_EQ(net::build_hash(), net::build_hash());
  EXPECT_NE(net::build_hash(), 0u);
}

// ----------------------------------------------------- rejoin wire format

TEST(Wire, EpochByteRoundTrips) {
  Frame f = sample_frame();
  f.epoch = 7;
  const auto bytes = net::encode_frame(f);
  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  const auto got = dec.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->epoch, 7);
}

TEST(Wire, RejoinRoundTripsAndRejectsTruncation) {
  const net::Rejoin rj{net::Hello{net::kProtocolVersion, 4, net::build_hash()},
                       /*frontier=*/3};
  const auto bytes = net::encode_rejoin(rj, /*from_rank=*/2, /*epoch=*/1);
  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  const auto f = dec.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, FrameType::kRejoin);
  EXPECT_EQ(f->from, 2);
  EXPECT_EQ(f->epoch, 1);
  const net::Rejoin back = net::decode_rejoin(*f);
  EXPECT_EQ(back.hello.protocol, rj.hello.protocol);
  EXPECT_EQ(back.hello.nranks, rj.hello.nranks);
  EXPECT_EQ(back.hello.build, rj.hello.build);
  EXPECT_EQ(back.frontier, 3u);

  // Every truncation of the payload must reject loudly — the payload size
  // is fixed, and nothing may be allocated from a partial REJOIN.
  for (std::size_t cut = 0; cut < f->payload.size(); ++cut) {
    Frame bad = *f;
    bad.payload = bad.payload.prefix(cut);
    EXPECT_THROW(net::decode_rejoin(bad), Error) << "cut at " << cut;
  }
}

TEST(Wire, WelcomeCarriesHelloAndEpoch) {
  const net::Hello h{net::kProtocolVersion, 2, net::build_hash()};
  const auto bytes = net::encode_welcome(h, /*from_rank=*/0, /*epoch=*/1);
  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  const auto f = dec.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, FrameType::kWelcome);
  EXPECT_EQ(f->epoch, 1);
  const net::Hello back = net::decode_hello(*f);  // accepts HELLO or WELCOME
  EXPECT_EQ(back.nranks, h.nranks);

  Frame bad = *f;
  bad.payload = bad.payload.prefix(bad.payload.size() - 1);
  EXPECT_THROW(net::decode_hello(bad), Error);
}

TEST(Wire, RejoinHeaderBitFlipsNeverCrashOrOverallocate) {
  const net::Rejoin rj{net::Hello{net::kProtocolVersion, 4, net::build_hash()},
                       /*frontier=*/5};
  const auto bytes = net::encode_rejoin(rj, 1, 1);
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<char> corrupt = bytes;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      FrameDecoder dec;
      try {
        dec.feed(corrupt.data(), corrupt.size());
        while (auto f = dec.next()) {
          // A structurally valid frame may still decode; the REJOIN parser
          // must then reject any payload whose size disagrees.
          if (f->type == FrameType::kRejoin ||
              f->type == FrameType::kWelcome) {
            try {
              (void)net::decode_rejoin(*f);
            } catch (const Error&) {
            }
          }
        }
        EXPECT_LE(dec.buffered(), corrupt.size());
      } catch (const Error&) {
        // Loud reject is the other acceptable outcome.
      }
    }
  }
}

// ------------------------------------------------------------- handshake

TEST(Handshake, MidHandshakeDisconnectIsDescriptive) {
  const std::string dir = make_mesh_dir();
  const auto listen_cfg = uds_config(dir, 0, 2);
  net::Fd listener = net::listen_endpoint(listen_cfg);

  // Fake rank 0: accept, then slam the connection shut mid-handshake.
  std::thread fake([&] {
    net::Fd conn = net::accept_endpoint(
        listener, std::chrono::steady_clock::now() + std::chrono::seconds(10));
    conn.reset();  // close without answering the HELLO
  });

  rt::dist::Mailbox inbox(1, watchdog_ms(10000));
  net::PeerMesh mesh(uds_config(dir, 1, 2), inbox);
  try {
    mesh.connect();
    FAIL() << "expected the handshake to fail";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("handshake"), std::string::npos)
        << e.what();
  }
  fake.join();
  remove_mesh_dir(dir, 2);
}

TEST(Handshake, MeshSizeMismatchIsRejected) {
  const std::string dir = make_mesh_dir();
  net::Fd listener = net::listen_endpoint(uds_config(dir, 0, 2));

  // Fake rank 0 launched "with 3 ranks": consumes the victim's HELLO
  // (closing before that write lands would EPIPE it into a different
  // error), then answers with nranks = 3.
  std::thread fake([&] {
    net::Fd conn = net::accept_endpoint(
        listener, std::chrono::steady_clock::now() + std::chrono::seconds(10));
    const net::Hello lie{net::kProtocolVersion, 3, net::build_hash()};
    const auto bytes = net::encode_hello(lie, 0);
    std::size_t got = 0;
    char sink[128];
    while (got < bytes.size()) {
      const ssize_t r = ::read(conn.get(), sink, sizeof(sink));
      if (r <= 0) break;
      got += static_cast<std::size_t>(r);
    }
    net::send_all(conn.get(), bytes.data(), bytes.size());
  });

  rt::dist::Mailbox inbox(1, watchdog_ms(10000));
  net::PeerMesh mesh(uds_config(dir, 1, 2), inbox);
  try {
    mesh.connect();
    FAIL() << "expected the mesh-size mismatch to be rejected";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("mesh size"), std::string::npos) << what;
    EXPECT_NE(what.find("3"), std::string::npos) << what;
  }
  fake.join();
  remove_mesh_dir(dir, 2);
}

// --------------------------------------------- in-process socket meshes

TEST(SocketMesh, TwoEndpointsExchangePayloads) {
  const std::string dir = make_mesh_dir();
  {
    TransportSet set(dir, 2);
    const std::uint64_t tag = make_tag(0, 1, 2, 3);
    const std::vector<char> payload{'h', 'i'};
    set.t[0]->send(1, tag, payload);
    EXPECT_EQ(set.t[1]->recv(tag, 0), payload);

    // Self-send stays local and uncounted.
    set.t[1]->send(1, make_tag(0, 9, 9, 9), {'s'});
    EXPECT_EQ(set.t[1]->recv(make_tag(0, 9, 9, 9), 1),
              std::vector<char>{'s'});

    drain_all(set);
    EXPECT_EQ(set.t[0]->stats().messages, 1);
    EXPECT_EQ(set.t[1]->stats().messages, 0);  // self-send excluded
    const auto wire = set.t[0]->wire_stats();
    EXPECT_EQ(wire.msgs_sent, 1);
    EXPECT_EQ(wire.bytes_sent, 2);
  }
  remove_mesh_dir(dir, 2);
}

TEST(SocketMesh, FourEndpointsAllToAll) {
  const std::string dir = make_mesh_dir();
  {
    TransportSet set(dir, 4);
    std::vector<std::thread> ranks;
    std::atomic<int> failures{0};
    for (int r = 0; r < 4; ++r)
      ranks.emplace_back([&, r] {
        try {
          auto& t = *set.t[static_cast<std::size_t>(r)];
          for (int to = 0; to < 4; ++to)
            if (to != r)
              t.send(to, make_tag(0, static_cast<std::uint32_t>(r),
                                  static_cast<std::uint32_t>(to), 0),
                     std::vector<char>{static_cast<char>('a' + r)});
          for (int from = 0; from < 4; ++from)
            if (from != r) {
              const auto got =
                  t.recv(make_tag(0, static_cast<std::uint32_t>(from),
                                  static_cast<std::uint32_t>(r), 0),
                         from);
              if (got != std::vector<char>{static_cast<char>('a' + from)})
                failures.fetch_add(1);
            }
          t.drain();
        } catch (const Error&) {
          failures.fetch_add(1);
        }
      });
    for (auto& th : ranks) th.join();
    EXPECT_EQ(failures.load(), 0);
  }
  remove_mesh_dir(dir, 4);
}

TEST(SocketMesh, InjectedDropsRecoverViaRealRetransmission) {
  const std::string dir = make_mesh_dir();
  resil::FaultConfig faults;
  faults.enabled = true;
  faults.seed = 7;
  faults.message_drop_probability = 0.5;
  faults.message_duplicate_probability = 0.0;
  const auto before = resil::snapshot();
  {
    TransportSet set(dir, 2, faults);
    constexpr int kMsgs = 24;
    std::thread receiver([&] {
      for (int k = 0; k < kMsgs; ++k) {
        const auto got = set.t[1]->recv(
            make_tag(0, static_cast<std::uint32_t>(k), 0, 0), 0);
        ASSERT_EQ(got.size(), 1u);
        EXPECT_EQ(got[0], static_cast<char>(k));
      }
      set.t[1]->drain();
    });
    for (int k = 0; k < kMsgs; ++k)
      set.t[0]->send(1, make_tag(0, static_cast<std::uint32_t>(k), 0, 0),
                     std::vector<char>{static_cast<char>(k)});
    set.t[0]->drain();
    receiver.join();

    const auto wire = set.t[0]->wire_stats();
    const auto after = resil::snapshot();
    const long long dropped =
        after.of(resil::ResilienceEvent::kMsgDrop) -
        before.of(resil::ResilienceEvent::kMsgDrop);
    const long long recovered =
        after.of(resil::ResilienceEvent::kMsgRecovered) -
        before.of(resil::ResilienceEvent::kMsgRecovered);
    EXPECT_GT(dropped, 0) << "seed 7 at 50% must drop something";
    EXPECT_EQ(dropped, recovered)
        << "every injected drop must be recovered by a flagged retransmit";
    EXPECT_GE(wire.retransmits, dropped);
    EXPECT_EQ(wire.msgs_sent, kMsgs - dropped + wire.retransmits)
        << "wire frames = surviving first transmissions + retransmissions";
  }
  remove_mesh_dir(dir, 2);
}

TEST(SocketMesh, InjectedDuplicatesAreDeduped) {
  const std::string dir = make_mesh_dir();
  resil::FaultConfig faults;
  faults.enabled = true;
  faults.seed = 11;
  faults.message_drop_probability = 0.0;
  faults.message_duplicate_probability = 0.6;
  {
    TransportSet set(dir, 2, faults);
    constexpr int kMsgs = 24;
    for (int k = 0; k < kMsgs; ++k)
      set.t[0]->send(1, make_tag(0, static_cast<std::uint32_t>(k), 0, 0),
                     std::vector<char>{static_cast<char>(k)});
    for (int k = 0; k < kMsgs; ++k) {
      const auto got = set.t[1]->recv(
          make_tag(0, static_cast<std::uint32_t>(k), 0, 0), 0);
      EXPECT_EQ(got, std::vector<char>{static_cast<char>(k)});
    }
    drain_all(set);
    // Logical accounting ignores the duplicates; the wire saw them.
    EXPECT_EQ(set.t[0]->stats().messages, kMsgs);
    EXPECT_GT(set.t[0]->wire_stats().msgs_sent, kMsgs);
  }
  remove_mesh_dir(dir, 2);
}

TEST(SocketMesh, DeadPeerFailsBlockedReceiversByName) {
  const std::string dir = make_mesh_dir();
  {
    TransportSet set(dir, 2);
    std::string what;
    std::thread receiver([&] {
      try {
        set.t[0]->recv(make_tag(0, 1, 1, 1), 1);
      } catch (const Error& e) {
        what = e.what();
      }
    });
    // Rank 1 dies hard: no BYE, just closed sockets.
    set.t[1]->abort();
    receiver.join();
    EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
    EXPECT_NE(what.find("lost"), std::string::npos) << what;
  }
  remove_mesh_dir(dir, 2);
}

TEST(SocketMesh, WatchdogTimeoutNamesPeerConnectionState) {
  const std::string dir = make_mesh_dir();
  {
    // Short watchdog: the recv deadline fires while the peer is healthy.
    TransportSet set(dir, 2, resil::FaultConfig{}, /*watchdog=*/200);
    std::string what;
    try {
      set.t[0]->recv(make_tag(0, 5, 5, 5), 1);
    } catch (const Error& e) {
      what = e.what();
    }
    EXPECT_NE(what.find("watchdog"), std::string::npos) << what;
    EXPECT_NE(what.find("from rank 1 (connected)"), std::string::npos)
        << what;

    // Peer 1 finishes sending (BYE on the wire): the same timeout now
    // reports "draining" — a done-peer hang reads differently from a
    // slow-peer hang.
    set.t[1]->mesh().begin_drain();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (set.t[0]->mesh().peer_state(1) !=
               rt::dist::PeerState::kDraining &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    try {
      what.clear();
      set.t[0]->recv(make_tag(0, 6, 6, 6), 1);
    } catch (const Error& e) {
      what = e.what();
    }
    EXPECT_NE(what.find("from rank 1 (draining)"), std::string::npos)
        << what;
    drain_all(set);
  }
  remove_mesh_dir(dir, 2);
}

// ------------------------------------------------------------ mesh rejoin

namespace {

// Dial `victim`'s listener raw, write `bytes`, and report whether a
// WELCOME frame came back before EOF/timeout — the attacker's view of a
// rejoin attempt. Everything short of a WELCOME (silent close, garbage)
// counts as rejected.
bool rejoin_attempt(const net::NetConfig& cfg, int victim,
                    const std::vector<char>& bytes) {
  const auto dl =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  net::Fd fd = net::connect_endpoint(cfg, victim, dl);
  if (!net::send_all(fd.get(), bytes.data(), bytes.size())) return false;
  FrameDecoder dec;
  char buf[4096];
  while (std::chrono::steady_clock::now() < dl) {
    if (!net::wait_readable(fd.get(), std::chrono::steady_clock::now() +
                                          std::chrono::milliseconds(100)))
      continue;
    const long n = net::recv_some(fd.get(), buf, sizeof(buf));
    if (n <= 0) return false;  // EOF / reset: the mesh closed on us
    try {
      dec.feed(buf, static_cast<std::size_t>(n));
      while (auto f = dec.next())
        if (f->type == FrameType::kWelcome) return true;
    } catch (const Error&) {
      return false;
    }
  }
  return false;
}

net::NetConfig recovery_config(const std::string& dir, int rank,
                               int nranks) {
  net::NetConfig cfg = uds_config(dir, rank, nranks);
  cfg.rejoin_window_ms = 20000;
  return cfg;
}

// TransportSet with a rejoin window on every endpoint: loss holds the slot
// open instead of failing the mailbox.
struct RecoverySet {
  std::vector<std::unique_ptr<net::SocketTransport>> t;

  RecoverySet(const std::string& dir, int nranks, int epoch_of_rank = -1,
              int epoch = 0) {
    t.resize(static_cast<std::size_t>(nranks));
    std::vector<std::thread> builders;
    builders.reserve(t.size());
    for (int r = 0; r < nranks; ++r)
      builders.emplace_back([&, r] {
        net::NetConfig cfg = recovery_config(dir, r, nranks);
        if (r == epoch_of_rank) cfg.epoch = epoch;
        t[static_cast<std::size_t>(r)] = std::make_unique<net::SocketTransport>(
            cfg, rt::PerturbConfig{}, resil::FaultConfig{},
            watchdog_ms(20000));
      });
    for (auto& b : builders) b.join();
    for (const auto& p : t) EXPECT_NE(p, nullptr);
  }
};

void wait_for_lost(net::SocketTransport& t, int peer) {
  const auto dl =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (t.mesh().peer_state(peer) != rt::dist::PeerState::kLost &&
         std::chrono::steady_clock::now() < dl)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_EQ(t.mesh().peer_state(peer), rt::dist::PeerState::kLost);
}

}  // namespace

TEST(SocketMesh, RejoinValidationRejectsImpostersThenAcceptsTheRespawn) {
  const std::string dir = make_mesh_dir();
  {
    RecoverySet set(dir, 2);
    // A pre-crash message rank 1 receives and acks: after the crash the
    // respawn cannot reconstruct it, so the survivor must replay it from
    // the sent log.
    const auto tag = make_tag(0, 0, 1, 0);
    set.t[0]->send(1, tag, std::vector<char>{'p', 'r', 'e'});
    EXPECT_EQ(set.t[1]->recv(tag, 0), (std::vector<char>{'p', 'r', 'e'}));

    // Rank 1 dies hard; rank 0 holds the slot open (window configured).
    set.t[1]->abort();
    set.t[1].reset();
    wait_for_lost(*set.t[0], 1);

    const net::NetConfig dial = uds_config(dir, 1, 2);
    const net::Hello good{net::kProtocolVersion, 2, net::build_hash()};

    // Epoch regression (replayed handshake): epoch must be exactly +1.
    EXPECT_FALSE(rejoin_attempt(
        dial, 0, net::encode_rejoin(net::Rejoin{good, 0}, 1, 0)));
    // Epoch skip: a diverged history is refused, not resynced.
    EXPECT_FALSE(rejoin_attempt(
        dial, 0, net::encode_rejoin(net::Rejoin{good, 0}, 1, 2)));
    // Unknown rank: no peer slot, silently closed.
    EXPECT_FALSE(rejoin_attempt(
        dial, 0, net::encode_rejoin(net::Rejoin{good, 0}, 7, 1)));
    // Wrong build identity.
    const net::Hello skewed{net::kProtocolVersion, 2,
                            net::build_hash() ^ 1u};
    EXPECT_FALSE(rejoin_attempt(
        dial, 0, net::encode_rejoin(net::Rejoin{skewed, 0}, 1, 1)));
    // Garbage bytes never reach validation.
    EXPECT_FALSE(rejoin_attempt(
        dial, 0, std::vector<char>(64, static_cast<char>(0xEE))));

    // Only known-rank, post-decode failures are accounted against the
    // peer: bad epochs (2) and the build mismatch (1).
    EXPECT_GE(set.t[0]->mesh().peer_stats(1).rejoin_rejects, 3);
    EXPECT_EQ(set.t[0]->mesh().peer_stats(1).rejoins, 0);
    ASSERT_EQ(set.t[0]->mesh().peer_state(1), rt::dist::PeerState::kLost)
        << "a rejected rejoin must not disturb the held slot";

    // The honest respawn (epoch 1, frontier 0) still succeeds after the
    // attack battery...
    net::NetConfig cfg1 = recovery_config(dir, 1, 2);
    cfg1.epoch = 1;
    cfg1.rejoin_frontier = 0;
    net::SocketTransport respawn(cfg1, rt::PerturbConfig{},
                                 resil::FaultConfig{}, watchdog_ms(20000));
    EXPECT_EQ(set.t[0]->mesh().peer_state(1),
              rt::dist::PeerState::kConnected);
    EXPECT_EQ(set.t[0]->mesh().peer_epoch(1), 1);
    EXPECT_GE(set.t[0]->mesh().peer_stats(1).rejoins, 1);

    // ...and the acked pre-crash message is replayed to the new session
    // (frontier 0 covers it), stamped with its original deterministic id.
    EXPECT_EQ(respawn.recv(tag, 0), (std::vector<char>{'p', 'r', 'e'}));

    // Fresh traffic flows both ways across the rebuilt link.
    const auto t2 = make_tag(0, 1, 0, 1);
    respawn.send(0, t2, std::vector<char>{'n', 'e', 'w'});
    EXPECT_EQ(set.t[0]->recv(t2, 1), (std::vector<char>{'n', 'e', 'w'}));

    std::thread d([&] { respawn.drain(); });
    set.t[0]->drain();
    d.join();
  }
  remove_mesh_dir(dir, 2);
}

TEST(SocketMesh, RejoinWindowExpiryDegradesToOrderlyFailure) {
  const std::string dir = make_mesh_dir();
  {
    std::vector<std::unique_ptr<net::SocketTransport>> t(2);
    std::vector<std::thread> builders;
    for (int r = 0; r < 2; ++r)
      builders.emplace_back([&, r] {
        net::NetConfig cfg = uds_config(dir, r, 2);
        cfg.rejoin_window_ms = 100;  // expires before any respawn shows up
        t[static_cast<std::size_t>(r)] = std::make_unique<net::SocketTransport>(
            cfg, rt::PerturbConfig{}, resil::FaultConfig{},
            watchdog_ms(20000));
      });
    for (auto& b : builders) b.join();

    t[1]->abort();
    t[1].reset();
    std::string what;
    try {
      t[0]->recv(make_tag(0, 2, 2, 2), 1);
    } catch (const Error& e) {
      what = e.what();
    }
    EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
    EXPECT_NE(what.find("no rejoin within"), std::string::npos) << what;
  }
  remove_mesh_dir(dir, 2);
}

TEST(SocketMesh, DrainNamesEveryLostPeer) {
  const std::string dir = make_mesh_dir();
  {
    TransportSet set(dir, 3);
    // Both peers of rank 0 die hard, in either order.
    set.t[1]->abort();
    set.t[2]->abort();
    std::string what;
    try {
      set.t[0]->drain();
    } catch (const Error& e) {
      what = e.what();
    }
    EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 2"), std::string::npos) << what;
    EXPECT_NE(what.find("lost"), std::string::npos) << what;
  }
  remove_mesh_dir(dir, 3);
}

// ---------------------------------------------------- mailbox epoch fence

TEST(Mailbox, EpochFenceDiscardsStaleDeposits) {
  rt::dist::Mailbox box(0, watchdog_ms(5000));
  const auto tag = make_tag(0, 1, 1, 1);

  // Already-queued pre-crash envelope from rank 1, epoch 0.
  rt::dist::Envelope stale;
  stale.id = 1;
  stale.tag = tag;
  stale.from = 1;
  stale.epoch = 0;
  stale.payload = {'s'};
  box.deposit(stale);

  box.fence_epoch(1, 1);
  EXPECT_EQ(box.stale_discards(), 1);

  // A late-arriving stale deposit is fenced on entry too.
  rt::dist::Envelope late = stale;
  late.id = 2;
  box.deposit(late);
  EXPECT_EQ(box.stale_discards(), 2);

  // Post-rejoin traffic (epoch >= fence) passes.
  rt::dist::Envelope fresh;
  fresh.id = 3;
  fresh.tag = tag;
  fresh.from = 1;
  fresh.epoch = 1;
  fresh.payload = {'f'};
  box.deposit(fresh);
  EXPECT_EQ(box.recv(tag, 1), std::vector<char>{'f'});

  // Self/in-process deposits (from < 0) are never fenced.
  rt::dist::Envelope self;
  self.id = 4;
  self.tag = tag;
  self.payload = {'x'};
  box.deposit(self);
  EXPECT_EQ(box.recv(tag, -1), std::vector<char>{'x'});
  EXPECT_EQ(box.stale_discards(), 2);
}

TEST(Mailbox, MultipleFailuresSurfaceTheCount) {
  rt::dist::Mailbox box(0, watchdog_ms(5000));
  box.fail("connection to rank 1 lost");
  box.fail("connection to rank 2 lost");
  box.fail("connection to rank 3 lost");
  std::string what;
  try {
    box.recv(make_tag(0, 1, 1, 1), 1);
  } catch (const Error& e) {
    what = e.what();
  }
  EXPECT_NE(what.find("connection to rank 1 lost"), std::string::npos)
      << what;
  EXPECT_NE(what.find("(+2 earlier/later failures)"), std::string::npos)
      << what;
}

// ----------------------------------------------------------- adaptive RTO

TEST(Rtt, SeedHoldsUntilFirstSample) {
  net::RttEstimator e;
  EXPECT_EQ(e.rto_ms(), 25);
  EXPECT_EQ(e.samples(), 0);
  net::RttEstimator custom(60.0);
  EXPECT_EQ(custom.rto_ms(), 60);
}

TEST(Rtt, FirstSampleFollowsRfc6298Init) {
  net::RttEstimator e;
  e.sample(100.0);
  EXPECT_DOUBLE_EQ(e.srtt_ms(), 100.0);
  EXPECT_DOUBLE_EQ(e.rttvar_ms(), 50.0);
  EXPECT_EQ(e.rto_ms(), 300);  // srtt + 4·rttvar
  EXPECT_EQ(e.samples(), 1);
}

TEST(Rtt, ConvergesToASteadyRtt) {
  net::RttEstimator e;
  for (int i = 0; i < 200; ++i) e.sample(10.0);
  EXPECT_NEAR(e.srtt_ms(), 10.0, 1e-9);
  EXPECT_NEAR(e.rttvar_ms(), 0.0, 1e-9);
  EXPECT_EQ(e.rto_ms(), 10);
  EXPECT_EQ(e.samples(), 200);
}

TEST(Rtt, ClampsToConfiguredBounds) {
  net::RttEstimator slow;
  slow.sample(1e7);
  EXPECT_EQ(slow.rto_ms(), 2000);

  net::RttEstimator fast;
  for (int i = 0; i < 200; ++i) fast.sample(0.01);
  EXPECT_EQ(fast.rto_ms(), 5);

  net::RttEstimator negative;
  negative.sample(-3.0);  // clamped to zero, still within [min, max]
  EXPECT_EQ(negative.rto_ms(), 5);
}

// Real traffic on a UDS pair feeds the estimator via acks of
// first-transmission frames; the per-peer RTO follows the link instead of
// the configured seed.
TEST(SocketMesh, AdaptiveRtoSamplesAckedTraffic) {
  const std::string dir = make_mesh_dir();
  {
    TransportSet set(dir, 2);
    for (int i = 0; i < 5; ++i) {
      set.t[0]->send(1, make_tag(0, static_cast<std::uint32_t>(i), 0, 0),
                     std::vector<char>{'r'});
      (void)set.t[1]->recv(make_tag(0, static_cast<std::uint32_t>(i), 0, 0),
                           0);
    }
    set.t[0]->flush();  // every send acked => every first send sampled
    EXPECT_GT(set.t[0]->mesh().peer_srtt_ms(1), 0.0);
    const long long rto = set.t[0]->mesh().peer_rto_ms(1);
    EXPECT_GE(rto, 5);
    EXPECT_LE(rto, 2000);
    drain_all(set);
  }
  remove_mesh_dir(dir, 2);
}

// PTLR_NET_RTO_MS pins the timeout: with rto_fixed the per-peer RTO stays
// at the configured value no matter what the link measures.
TEST(SocketMesh, FixedRtoOverridesTheEstimator) {
  const std::string dir = make_mesh_dir();
  {
    std::vector<std::unique_ptr<net::SocketTransport>> t(2);
    std::vector<std::thread> builders;
    for (int r = 0; r < 2; ++r)
      builders.emplace_back([&, r] {
        net::NetConfig cfg = uds_config(dir, r, 2);
        cfg.rto_ms = 77;
        cfg.rto_fixed = true;
        t[static_cast<std::size_t>(r)] =
            std::make_unique<net::SocketTransport>(
                cfg, rt::PerturbConfig{}, resil::FaultConfig{},
                watchdog_ms(20000));
      });
    for (auto& b : builders) b.join();
    for (int i = 0; i < 5; ++i) {
      t[0]->send(1, make_tag(0, static_cast<std::uint32_t>(i), 0, 0),
                 std::vector<char>{'f'});
      (void)t[1]->recv(make_tag(0, static_cast<std::uint32_t>(i), 0, 0), 0);
    }
    t[0]->flush();
    EXPECT_GT(t[0]->mesh().peer_srtt_ms(1), 0.0);  // still measured
    EXPECT_EQ(t[0]->mesh().peer_rto_ms(1), 77);    // but not used
    std::vector<std::thread> drains;
    for (auto& p : t) drains.emplace_back([&p] { p->drain(); });
    for (auto& th : drains) th.join();
  }
  remove_mesh_dir(dir, 2);
}

// ----------------------------------------------- PTLR_NET port parsing ----

namespace {

// Sets PTLR_NET / PTLR_RANK / PTLR_NRANKS for one from_env() call and
// restores the previous values afterwards.
class ScopedNetEnv {
 public:
  ScopedNetEnv(const std::string& net, int nranks) {
    for (const char* name : {"PTLR_NET", "PTLR_RANK", "PTLR_NRANKS"}) {
      const char* old = std::getenv(name);
      saved_.push_back({name, old != nullptr, old != nullptr ? old : ""});
    }
    setenv("PTLR_NET", net.c_str(), 1);
    setenv("PTLR_RANK", "0", 1);
    setenv("PTLR_NRANKS", std::to_string(nranks).c_str(), 1);
  }
  ~ScopedNetEnv() {
    for (const Saved& s : saved_) {
      if (s.had)
        setenv(s.name, s.value.c_str(), 1);
      else
        unsetenv(s.name);
    }
  }
  ScopedNetEnv(const ScopedNetEnv&) = delete;
  ScopedNetEnv& operator=(const ScopedNetEnv&) = delete;

 private:
  struct Saved {
    const char* name;
    bool had;
    std::string value;
  };
  std::vector<Saved> saved_;
};

// from_env() must throw a ptlr::Error whose message names PTLR_NET.
std::string net_config_error(const std::string& net, int nranks) {
  const ScopedNetEnv env(net, nranks);
  try {
    (void)net::NetConfig::from_env();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

}  // namespace

TEST(NetConfig, TcpSpecParsesHostAndBasePort) {
  const ScopedNetEnv env("tcp:127.0.0.1:39310", 4);
  const net::NetConfig cfg = net::NetConfig::from_env();
  EXPECT_EQ(cfg.kind, net::NetConfig::Kind::kTcp);
  EXPECT_EQ(cfg.host, "127.0.0.1");
  EXPECT_EQ(cfg.port, 39310);
  EXPECT_EQ(cfg.endpoint_of(3), "127.0.0.1:39313");
}

TEST(NetConfig, TcpPortMustBeAWholeNumberInRange) {
  for (const char* spec :
       {"tcp:127.0.0.1:9x", "tcp:127.0.0.1:", "tcp:127.0.0.1:99999999999",
        "tcp:127.0.0.1:0", "tcp:127.0.0.1:-5", "tcp:127.0.0.1: 80"}) {
    const std::string what = net_config_error(spec, 2);
    EXPECT_NE(what.find("PTLR_NET"), std::string::npos)
        << spec << " -> '" << what << "'";
  }
}

TEST(NetConfig, TcpBasePortMustLeaveAPortForEveryRank) {
  EXPECT_EQ(net_config_error("tcp:127.0.0.1:65532", 4), "");
  const std::string what = net_config_error("tcp:127.0.0.1:65533", 4);
  EXPECT_NE(what.find("PTLR_NET"), std::string::npos) << what;
}
