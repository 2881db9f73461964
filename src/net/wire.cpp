#include "net/wire.hpp"

#include <cstring>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace ptlr::net {

namespace {

// Endian-independent little-endian stores/loads.
void put_u32(char* p, std::uint32_t x) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>((x >> (8 * i)) & 0xFF);
}

void put_u64(char* p, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<char>((x >> (8 * i)) & 0xFF);
}

std::uint32_t get_u32(const char* p) {
  std::uint32_t x = 0;
  for (int i = 0; i < 4; ++i)
    x |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  return x;
}

std::uint64_t get_u64(const char* p) {
  std::uint64_t x = 0;
  for (int i = 0; i < 8; ++i)
    x |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  return x;
}

// The Hello fields, as HELLO and WELCOME carry them and REJOIN leads with
// them: protocol, nranks, build.
constexpr std::size_t kHelloBytes = 16;

void put_hello(char* p, const Hello& h) {
  put_u32(p, h.protocol);
  put_u32(p + 4, h.nranks);
  put_u64(p + 8, h.build);
}

Hello get_hello(const char* p) {
  Hello h;
  h.protocol = get_u32(p);
  h.nranks = get_u32(p + 4);
  h.build = get_u64(p + 8);
  return h;
}

}  // namespace

std::uint64_t build_hash() {
  // Stable across ranks of one build: wire constants + compiler identity.
  std::uint64_t h = splitmix64(
      (static_cast<std::uint64_t>(kWireVersion) << 32) ^ kProtocolVersion);
#if defined(__VERSION__)
  for (const char* p = __VERSION__; *p != '\0'; ++p)
    h = splitmix64(h ^ static_cast<std::uint64_t>(*p));
#endif
  h = splitmix64(h ^ sizeof(void*));
  return h;
}

std::array<char, kHeaderBytes> encode_header(const Frame& f) {
  PTLR_CHECK(f.payload.size() <= kMaxFramePayload,
             "frame payload exceeds wire limit");
  std::array<char, kHeaderBytes> h{};
  put_u32(h.data(), kMagic);
  h[4] = static_cast<char>(kWireVersion);
  h[5] = static_cast<char>(f.type);
  h[6] = static_cast<char>(f.flags);
  h[7] = static_cast<char>(f.epoch);
  put_u32(h.data() + 8, static_cast<std::uint32_t>(f.from));
  put_u32(h.data() + 12, static_cast<std::uint32_t>(f.payload.size()));
  put_u64(h.data() + 16, f.id);
  put_u64(h.data() + 24, f.tag);
  return h;
}

std::vector<char> encode_frame(const Frame& f) {
  const std::array<char, kHeaderBytes> h = encode_header(f);
  // Sized up front and filled by copy: GCC 12 misreads two appending
  // inserts into a reserved vector as an overflow (-Wstringop-overflow).
  std::vector<char> out(kHeaderBytes + f.payload.size());
  std::copy(h.begin(), h.end(), out.begin());
  std::copy(f.payload.begin(), f.payload.end(),
            out.begin() + static_cast<std::ptrdiff_t>(kHeaderBytes));
  return out;
}

std::vector<char> hello_payload(const Hello& h) {
  std::vector<char> out(kHelloBytes);
  put_hello(out.data(), h);
  return out;
}

std::vector<char> encode_hello(const Hello& h, int from_rank) {
  return encode_frame(Frame{.type = FrameType::kHello,
                            .from = from_rank,
                            .payload = hello_payload(h)});
}

Hello decode_hello(const Frame& f) {
  PTLR_CHECK(f.type == FrameType::kHello || f.type == FrameType::kWelcome,
             "not a HELLO/WELCOME frame");
  PTLR_CHECK(f.payload.size() == kHelloBytes, "HELLO payload size mismatch");
  return get_hello(f.payload.data());
}

std::vector<char> encode_rejoin(const Rejoin& r, int from_rank,
                                std::uint8_t epoch) {
  std::vector<char> pl(kHelloBytes + 8);
  put_hello(pl.data(), r.hello);
  put_u64(pl.data() + kHelloBytes, r.frontier);
  return encode_frame(Frame{.type = FrameType::kRejoin,
                            .epoch = epoch,
                            .from = from_rank,
                            .payload = std::move(pl)});
}

Rejoin decode_rejoin(const Frame& f) {
  PTLR_CHECK(f.type == FrameType::kRejoin, "not a REJOIN frame");
  PTLR_CHECK(f.payload.size() == kHelloBytes + 8,
             "REJOIN payload size mismatch");
  Rejoin r;
  r.hello = get_hello(f.payload.data());
  r.frontier = get_u64(f.payload.data() + kHelloBytes);
  return r;
}

std::vector<char> encode_welcome(const Hello& h, int from_rank,
                                 std::uint8_t epoch) {
  return encode_frame(Frame{.type = FrameType::kWelcome,
                            .epoch = epoch,
                            .from = from_rank,
                            .payload = hello_payload(h)});
}

void FrameDecoder::feed(const char* data, std::size_t n) {
  // Compact lazily: drop consumed prefix once it dominates the buffer so
  // a long-lived connection doesn't grow without bound.
  if (pos_ > 0 && pos_ >= buf_.size() / 2) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

std::optional<Frame> FrameDecoder::next() {
  const std::size_t avail = buf_.size() - pos_;
  if (avail < kHeaderBytes) return std::nullopt;
  const char* h = buf_.data() + pos_;

  // Validate the fixed header BEFORE trusting the length prefix — a
  // corrupt stream must fail loudly here, never size an allocation.
  const std::uint32_t magic = get_u32(h);
  if (magic != kMagic) {
    std::ostringstream os;
    os << "wire: bad frame magic 0x" << std::hex << magic;
    throw Error(os.str());
  }
  const auto version = static_cast<std::uint8_t>(h[4]);
  if (version != kWireVersion)
    throw Error("wire: unsupported frame version " + std::to_string(version));
  const auto type = static_cast<std::uint8_t>(h[5]);
  if (type < static_cast<std::uint8_t>(FrameType::kHello) ||
      type > static_cast<std::uint8_t>(FrameType::kWelcome))
    throw Error("wire: unknown frame type " + std::to_string(type));
  const std::uint32_t len = get_u32(h + 12);
  if (len > kMaxFramePayload)
    throw Error("wire: frame payload length " + std::to_string(len) +
                " exceeds limit " + std::to_string(kMaxFramePayload));

  if (avail < kHeaderBytes + len) return std::nullopt;  // wait for more

  Frame f;
  f.type = static_cast<FrameType>(type);
  f.flags = static_cast<std::uint8_t>(h[6]);
  f.epoch = static_cast<std::uint8_t>(h[7]);
  f.from = static_cast<std::int32_t>(get_u32(h + 8));
  f.id = get_u64(h + 16);
  f.tag = get_u64(h + 24);
  // The one copy a received payload pays: out of the stream buffer into
  // its own allocation, shared from here on (decoder → envelope → cache).
  f.payload = std::vector<char>(h + kHeaderBytes, h + kHeaderBytes + len);
  pos_ += kHeaderBytes + len;
  return f;
}

}  // namespace ptlr::net
