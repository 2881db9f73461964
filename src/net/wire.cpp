#include "net/wire.hpp"

#include <cstring>
#include <sstream>

#include "common/error.hpp"

namespace ptlr::net {

namespace {

// Endian-independent little-endian stores/loads.
void put_u32(std::vector<char>& v, std::uint32_t x) {
  for (int i = 0; i < 4; ++i)
    v.push_back(static_cast<char>((x >> (8 * i)) & 0xFF));
}

void put_u64(std::vector<char>& v, std::uint64_t x) {
  for (int i = 0; i < 8; ++i)
    v.push_back(static_cast<char>((x >> (8 * i)) & 0xFF));
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

}  // namespace

// splitmix64, same mixer the fault injector uses for schedule invariance.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t build_hash() {
  // Stable across ranks of one build: wire constants + compiler identity.
  std::uint64_t h = mix64((static_cast<std::uint64_t>(kWireVersion) << 32) ^
                          kProtocolVersion);
#if defined(__VERSION__)
  for (const char* p = __VERSION__; *p != '\0'; ++p)
    h = mix64(h ^ static_cast<std::uint64_t>(*p));
#endif
  h = mix64(h ^ sizeof(void*));
  return h;
}

std::array<char, kHeaderBytes> encode_header(const Frame& f) {
  PTLR_CHECK(f.payload.size() <= kMaxFramePayload,
             "frame payload exceeds wire limit");
  std::array<char, kHeaderBytes> h{};
  auto put32 = [&h](std::size_t at, std::uint32_t x) {
    for (int i = 0; i < 4; ++i)
      h[at + static_cast<std::size_t>(i)] =
          static_cast<char>((x >> (8 * i)) & 0xFF);
  };
  auto put64 = [&h](std::size_t at, std::uint64_t x) {
    for (int i = 0; i < 8; ++i)
      h[at + static_cast<std::size_t>(i)] =
          static_cast<char>((x >> (8 * i)) & 0xFF);
  };
  put32(0, kMagic);
  h[4] = static_cast<char>(kWireVersion);
  h[5] = static_cast<char>(f.type);
  h[6] = static_cast<char>(f.flags);
  h[7] = static_cast<char>(f.epoch);
  put32(8, static_cast<std::uint32_t>(f.from));
  put32(12, static_cast<std::uint32_t>(f.payload.size()));
  put64(16, f.id);
  put64(24, f.tag);
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
  std::vector<char> out;
  out.reserve(16);
  put_u32(out, h.protocol);
  put_u32(out, h.nranks);
  put_u64(out, h.build);
  return out;
}

std::vector<char> encode_hello(const Hello& h, int from_rank) {
  Frame f;
  f.type = FrameType::kHello;
  f.from = from_rank;
  f.payload = hello_payload(h);
  return encode_frame(f);
}

Hello decode_hello(const Frame& f) {
  PTLR_CHECK(f.type == FrameType::kHello || f.type == FrameType::kWelcome,
             "not a HELLO/WELCOME frame");
  PTLR_CHECK(f.payload.size() == 16, "HELLO payload size mismatch");
  Hello h;
  h.protocol = get_u32(f.payload.data());
  h.nranks = get_u32(f.payload.data() + 4);
  h.build = get_u64(f.payload.data() + 8);
  return h;
}

std::vector<char> encode_rejoin(const Rejoin& r, int from_rank,
                                std::uint8_t epoch) {
  Frame f;
  f.type = FrameType::kRejoin;
  f.from = from_rank;
  f.epoch = epoch;
  std::vector<char> pl;
  pl.reserve(24);
  put_u32(pl, r.hello.protocol);
  put_u32(pl, r.hello.nranks);
  put_u64(pl, r.hello.build);
  put_u64(pl, r.frontier);
  f.payload = std::move(pl);
  return encode_frame(f);
}

Rejoin decode_rejoin(const Frame& f) {
  PTLR_CHECK(f.type == FrameType::kRejoin, "not a REJOIN frame");
  PTLR_CHECK(f.payload.size() == 24, "REJOIN payload size mismatch");
  Rejoin r;
  r.hello.protocol = get_u32(f.payload.data());
  r.hello.nranks = get_u32(f.payload.data() + 4);
  r.hello.build = get_u64(f.payload.data() + 8);
  r.frontier = get_u64(f.payload.data() + 16);
  return r;
}

std::vector<char> encode_welcome(const Hello& h, int from_rank,
                                 std::uint8_t epoch) {
  Frame f;
  f.type = FrameType::kWelcome;
  f.from = from_rank;
  f.epoch = epoch;
  std::vector<char> pl;
  pl.reserve(16);
  put_u32(pl, h.protocol);
  put_u32(pl, h.nranks);
  put_u64(pl, h.build);
  f.payload = std::move(pl);
  return encode_frame(f);
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
