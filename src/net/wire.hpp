// Length-prefixed wire format of the socket peer mesh (src/net).
//
// Every byte that crosses a process boundary is a Frame: a fixed 32-byte
// header (magic, version, type, flags, sender rank, payload length, message
// id, tag) followed by the payload. MSG frames carry the mailbox Envelope
// (runtime/mailbox.hpp) — the id/tag ride in the header, the serialized
// tile is the payload — so receiver-side dedup, retransmit recovery and
// deadline recv work unchanged over a real wire.
//
// The decoder is hardened the same way the TLR file reader is (tlr/io.cpp):
// every length is bounds-checked BEFORE any allocation, unknown magic /
// version / type values are rejected with a descriptive ptlr::Error, and a
// truncated stream simply waits for more bytes — it can never hang a
// deadline recv (the receiver thread keeps polling the socket) nor
// over-allocate. tests/test_net.cpp runs a corruption battery (bit flips,
// truncations, oversized length prefixes) against it.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.hpp"

namespace ptlr::net {

/// "PTLR" (little-endian byte order P,T,L,R on the wire).
constexpr std::uint32_t kMagic = 0x524C5450u;
/// Bump on any header layout change. v2: the former reserved byte 7 now
/// carries the session epoch (rank-death recovery).
constexpr std::uint8_t kWireVersion = 2;
/// Bump on any semantic protocol change (handshake contents, ack rules).
/// v2: REJOIN/WELCOME frames, epoch fencing.
constexpr std::uint32_t kProtocolVersion = 2;
constexpr std::size_t kHeaderBytes = 32;
/// Hard ceiling on a frame payload: decoding rejects anything larger
/// before allocating, so a corrupt length prefix cannot OOM the receiver.
constexpr std::uint32_t kMaxFramePayload = 1u << 30;

enum class FrameType : std::uint8_t {
  kHello = 1,    ///< handshake: payload = Hello (below)
  kMsg = 2,      ///< mailbox envelope: id/tag in header, tile bytes payload
  kAck = 3,      ///< delivery ack of MSG `id` (empty payload)
  kBye = 4,      ///< graceful drain marker: sender will send no more MSGs
  kRejoin = 5,   ///< respawned rank re-dials: payload = Hello + frontier
  kWelcome = 6,  ///< survivor accepts a REJOIN: payload = Hello
};

/// Frame flag bits.
enum : std::uint8_t {
  /// This MSG is a retransmission recovering an injected drop: delivering
  /// it fresh notes kMsgRecovered, closing the drop/recover accounting.
  kFlagDropRetransmit = 1u << 0,
};

struct Frame {
  FrameType type = FrameType::kMsg;
  std::uint8_t flags = 0;
  std::uint8_t epoch = 0;   ///< sender's session epoch (header byte 7)
  std::int32_t from = -1;   ///< sender rank
  std::uint64_t id = 0;     ///< message id (MSG/ACK); 0 otherwise
  std::uint64_t tag = 0;    ///< mailbox tag (MSG); 0 otherwise
  /// Refcounted: every copy of a Frame (send queue, unacked set, rejoin
  /// sent-log, duplicate/retransmit requeues) shares one payload buffer.
  Bytes payload;
};

/// Handshake payload exchanged right after connect: both sides must agree
/// on the protocol, the mesh size and the build identity before any MSG
/// flows — a version-skewed or mis-launched rank fails fast with a
/// descriptive error instead of corrupting tiles.
struct Hello {
  std::uint32_t protocol = kProtocolVersion;
  std::uint32_t nranks = 0;
  std::uint64_t build = 0;
};

/// REJOIN payload: the full Hello re-validation plus the task frontier the
/// respawned rank resumes from — survivors replay acked-but-lost frames
/// whose step is at or past this frontier.
struct Rejoin {
  Hello hello;
  std::uint64_t frontier = 0;
};

/// Identity of this binary's wire implementation, exchanged in Hello.
/// Derived from the protocol constants and the compiler identity — two
/// ranks launched from the same build always agree.
std::uint64_t build_hash();

/// Serialize just the fixed 32-byte header of `f` (the payload is written
/// separately from the shared buffer — the zero-copy send path: one
/// header on the stack, zero payload copies). Throws ptlr::Error if the
/// payload exceeds kMaxFramePayload.
std::array<char, kHeaderBytes> encode_header(const Frame& f);

/// Serialize a frame (header + payload) into one buffer — the handshake
/// and test path. Throws ptlr::Error if the payload exceeds
/// kMaxFramePayload.
std::vector<char> encode_frame(const Frame& f);

std::vector<char> encode_hello(const Hello& h, int from_rank);
/// Just the 16-byte Hello payload (for callers that build the Frame).
std::vector<char> hello_payload(const Hello& h);
/// Decode a HELLO or WELCOME frame's payload. Throws ptlr::Error on size
/// mismatch (WELCOME is a Hello re-validation after a rejoin).
Hello decode_hello(const Frame& f);

/// Serialize a REJOIN frame carrying `epoch` in the header.
std::vector<char> encode_rejoin(const Rejoin& r, int from_rank,
                                std::uint8_t epoch);
/// Decode a REJOIN frame's payload. Throws ptlr::Error on size mismatch —
/// validated before any field is read, nothing is allocated.
Rejoin decode_rejoin(const Frame& f);

/// Serialize a WELCOME frame (Hello payload) carrying `epoch`.
std::vector<char> encode_welcome(const Hello& h, int from_rank,
                                 std::uint8_t epoch);

/// Incremental decoder: feed() raw socket bytes, then drain next() until
/// it returns nullopt (incomplete frame buffered). next() throws
/// ptlr::Error on corrupt input — bad magic, unknown version/type, or an
/// oversized length prefix — without allocating payload space first.
class FrameDecoder {
 public:
  void feed(const char* data, std::size_t n);

  std::optional<Frame> next();

  /// Bytes currently buffered (incomplete frame tail).
  [[nodiscard]] std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::vector<char> buf_;
  std::size_t pos_ = 0;
};

}  // namespace ptlr::net
