#include "tlr/io.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>

namespace ptlr::tlr {

// Robustness contract: these readers consume untrusted bytes (files on
// disk, wire payloads of the distributed layer, anything the corruption
// fuzzer in tests/test_tlr.cpp produces). Corrupt input of every kind —
// truncation, bit flips, oversized dimensions — must surface as
// ptlr::Error; in particular, every size field is bounds-checked against
// the actual input size BEFORE any allocation it controls, so a flipped
// length byte cannot OOM the process.

namespace {

constexpr std::uint64_t kMagic = 0x50544C523153ull;  // "PTLR1S"
constexpr std::uint32_t kVersion = 1;

// A file is a header of seven 8-byte fields and then, tile by tile in
// row-major lower-triangle order, the tile_to_bytes record of each tile:
// one codec for files and wire payloads.

void append_u64(std::vector<char>& buf, std::uint64_t v) {
  const auto* p = reinterpret_cast<const char*>(&v);
  buf.insert(buf.end(), p, p + sizeof(v));
}

void append_matrix(std::vector<char>& buf, const dense::Matrix& m) {
  append_u64(buf, static_cast<std::uint64_t>(m.rows()));
  append_u64(buf, static_cast<std::uint64_t>(m.cols()));
  const auto* p = reinterpret_cast<const char*>(m.data());
  buf.insert(buf.end(), p, p + m.size() * sizeof(double));
}

// The bounded cursor: each take reads at `pos` and advances it, checking
// first that the bytes are there.
std::uint64_t take_u64(const char* buf, std::size_t size, std::size_t& pos) {
  PTLR_CHECK(size - pos >= sizeof(std::uint64_t), "truncated input");
  std::uint64_t v;
  std::memcpy(&v, buf + pos, sizeof(v));
  pos += sizeof(v);
  return v;
}

dense::Matrix take_matrix(const char* buf, std::size_t size,
                          std::size_t& pos) {
  const std::uint64_t rows = take_u64(buf, size, pos);
  const std::uint64_t cols = take_u64(buf, size, pos);
  PTLR_CHECK(rows < (1u << 24) && cols < (1u << 24), "corrupt matrix header");
  // Bound the declared payload by the actual buffer BEFORE allocating, in
  // 64-bit arithmetic — a bit-flipped dimension must throw, not OOM.
  const std::uint64_t bytes = rows * cols * sizeof(double);
  PTLR_CHECK(bytes <= size - pos, "matrix payload exceeds input size");
  dense::Matrix m(static_cast<int>(rows), static_cast<int>(cols));
  if (bytes > 0)
    std::memcpy(m.data(), buf + pos, static_cast<std::size_t>(bytes));
  pos += static_cast<std::size_t>(bytes);
  return m;
}

std::size_t matrix_byte_size(const dense::Matrix& m) {
  return 2 * sizeof(std::uint64_t) + m.size() * sizeof(double);
}

Tile take_tile(const char* buf, std::size_t size, std::size_t& pos) {
  const std::uint64_t tag = take_u64(buf, size, pos);
  PTLR_CHECK(tag <= 1, "corrupt tile tag");
  if (tag == 0) return Tile::make_dense(take_matrix(buf, size, pos));
  dense::Matrix u = take_matrix(buf, size, pos);
  dense::Matrix v = take_matrix(buf, size, pos);
  return Tile::make_lowrank({std::move(u), std::move(v)});
}

}  // namespace

void save(const TlrMatrix& m, const std::string& path) {
  const auto u64 = [](int v) { return static_cast<std::uint64_t>(v); };
  std::vector<char> header;
  for (const std::uint64_t v :
       {kMagic, std::uint64_t{kVersion}, u64(m.n()), u64(m.tile_size()),
        u64(m.band_size()), std::bit_cast<std::uint64_t>(m.accuracy().tol),
        u64(m.accuracy().maxrank)})
    append_u64(header, v);
  std::ofstream os(path, std::ios::binary);
  PTLR_CHECK(os.good(), "cannot open for writing: " + path);
  os.write(header.data(), static_cast<std::streamsize>(header.size()));
  for (int i = 0; i < m.nt(); ++i)
    for (int j = 0; j <= i; ++j) {
      const std::vector<char> record = tile_to_bytes(m.at(i, j));
      os.write(record.data(), static_cast<std::streamsize>(record.size()));
    }
  PTLR_CHECK(os.good(), "write failed: " + path);
}

TlrMatrix load(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  PTLR_CHECK(is.good(), "cannot open for reading: " + path);
  // One buffer the size of the file itself: no field read from it sizes
  // an allocation before the cursor has bounded it by these bytes.
  is.seekg(0, std::ios::end);
  const std::streamoff file_size = is.tellg();
  PTLR_CHECK(file_size >= 0, "cannot read: " + path);
  std::vector<char> file(static_cast<std::size_t>(file_size));
  is.seekg(0, std::ios::beg);
  is.read(file.data(), static_cast<std::streamsize>(file.size()));
  PTLR_CHECK(is.good(), "cannot read: " + path);
  const char* buf = file.data();
  const std::size_t size = file.size();
  std::size_t pos = 0;

  PTLR_CHECK(take_u64(buf, size, pos) == kMagic,
             "not a PTLR matrix file: " + path);
  PTLR_CHECK(take_u64(buf, size, pos) == kVersion,
             "unsupported format version");
  const std::uint64_t n64 = take_u64(buf, size, pos);
  const std::uint64_t b64 = take_u64(buf, size, pos);
  const std::uint64_t band64 = take_u64(buf, size, pos);
  compress::Accuracy acc;
  acc.tol = std::bit_cast<double>(take_u64(buf, size, pos));
  const std::uint64_t maxrank64 = take_u64(buf, size, pos);

  // Header sanity before any size-dependent allocation: dimensions must be
  // structurally possible, and the implied tile table must fit the actual
  // file (each tile record is at least tag + rows + cols = 24 bytes) — a
  // bit-flipped n cannot allocate an O(nt²) tile table.
  PTLR_CHECK(n64 >= 1 && n64 <= (1u << 30) && b64 >= 1 && b64 <= n64,
             "corrupt dimension header");
  PTLR_CHECK(std::isfinite(acc.tol) && acc.tol >= 0.0,
             "corrupt accuracy header");
  PTLR_CHECK(maxrank64 >= 1 && maxrank64 <= (1u << 30),
             "corrupt maxrank header");
  acc.maxrank = static_cast<int>(maxrank64);
  const std::uint64_t nt64 = (n64 + b64 - 1) / b64;
  const std::uint64_t ntiles = nt64 * (nt64 + 1) / 2;
  PTLR_CHECK(ntiles <= size / 24, "file too small for tile table");
  PTLR_CHECK(band64 <= nt64, "corrupt band size header");

  const int n = static_cast<int>(n64);
  const int b = static_cast<int>(b64);
  TlrMatrix m(n, b);
  for (int i = 0; i < m.nt(); ++i)
    for (int j = 0; j <= i; ++j) {
      // Stored dimensions that disagree with the tile geometry of (n, b)
      // are corruption, caught before the tile is accepted.
      Tile t = take_tile(buf, size, pos);
      PTLR_CHECK(t.rows() == m.tile_rows(i) && t.cols() == m.tile_rows(j),
                 "tile dimensions disagree with header");
      m.at(i, j) = std::move(t);
    }
  // Restore the metadata the constructor cannot take.
  m.densify_band(static_cast<int>(band64));  // records band_size
  m.set_accuracy(acc);
  return m;
}

std::size_t tile_byte_size(const Tile& t) {
  std::size_t n = sizeof(std::uint64_t);  // dense/low-rank discriminator
  if (t.is_dense()) {
    n += matrix_byte_size(t.dense_data());
  } else {
    n += matrix_byte_size(t.lr().u) + matrix_byte_size(t.lr().v);
  }
  return n;
}

std::vector<char> tile_to_bytes(const Tile& t) {
  // One exact-size reservation: the append helpers above may not grow the
  // buffer past it, so the serialized payload never pays a realloc — the
  // tests hold capacity() == size() to pin this down.
  std::vector<char> buf;
  buf.reserve(tile_byte_size(t));
  append_u64(buf, t.is_dense() ? 0 : 1);
  if (t.is_dense()) {
    append_matrix(buf, t.dense_data());
  } else {
    append_matrix(buf, t.lr().u);
    append_matrix(buf, t.lr().v);
  }
  return buf;
}

Tile tile_from_bytes(const std::vector<char>& bytes) {
  std::size_t pos = 0;
  return take_tile(bytes.data(), bytes.size(), pos);
}

Tile tile_from_bytes(const Bytes& bytes) {
  std::size_t pos = 0;
  return take_tile(bytes.data(), bytes.size(), pos);
}

}  // namespace ptlr::tlr
