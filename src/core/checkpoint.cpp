#include "core/checkpoint.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "tlr/io.hpp"

namespace ptlr::core {

namespace {

constexpr std::uint64_t kMagic = 0x31504B43524C5450ull;  // "PTLRCKP1" LE
constexpr std::uint64_t kVersion = 3;

void write_u64(std::FILE* f, std::uint64_t v) {
  PTLR_CHECK(std::fwrite(&v, sizeof(v), 1, f) == 1, "checkpoint write failed");
}

std::uint64_t read_u64(std::FILE* f, const std::string& path) {
  std::uint64_t v = 0;
  PTLR_CHECK(std::fread(&v, sizeof(v), 1, f) == 1,
             "truncated checkpoint: " + path);
  return v;
}

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

struct Header {
  std::uint64_t rank = 0, nranks = 0, nt = 0, frontier = 0, ntiles = 0;
};

/// Reads and sanity-checks the fixed header; `file_size` bounds the tile
/// table before anything size-dependent is trusted.
Header read_header(std::FILE* f, const std::string& path,
                   std::uint64_t file_size) {
  PTLR_CHECK(read_u64(f, path) == kMagic,
             "not a PTLR checkpoint file: " + path);
  PTLR_CHECK(read_u64(f, path) == kVersion,
             "unsupported checkpoint version: " + path);
  Header h;
  h.rank = read_u64(f, path);
  h.nranks = read_u64(f, path);
  h.nt = read_u64(f, path);
  h.frontier = read_u64(f, path);
  h.ntiles = read_u64(f, path);
  PTLR_CHECK(h.nranks >= 1 && h.rank < h.nranks && h.nt >= 1 &&
                 h.nt <= (1u << 24) && h.frontier <= h.nt,
             "corrupt checkpoint header: " + path);
  // Each tile record is at least {i, j, nbytes} = 24 bytes — a flipped
  // count cannot drive an unbounded read loop.
  PTLR_CHECK(h.ntiles <= file_size / 24,
             "checkpoint too small for tile table: " + path);
  return h;
}

}  // namespace

std::string CheckpointPolicy::path_of(int rank) const {
  return dir + "/ptlr-ckpt." + std::to_string(rank) + ".bin";
}

CheckpointPolicy CheckpointPolicy::parse(const char* spec, const char* dir) {
  CheckpointPolicy p;
  if (dir != nullptr && dir[0] != '\0') p.dir = dir;
  if (spec == nullptr || spec[0] == '\0') return p;
  const std::string s(spec);
  if (s == "off") return p;
  constexpr const char* kPrefix = "every:";
  PTLR_CHECK(s.rfind(kPrefix, 0) == 0,
             "PTLR_CKPT: expected 'off' or 'every:<k>', got '" + s + "'");
  char* end = nullptr;
  const long k = std::strtol(s.c_str() + std::strlen(kPrefix), &end, 10);
  PTLR_CHECK(end != nullptr && *end == '\0' && k >= 1 && k <= 1000000,
             "PTLR_CKPT: bad interval in '" + s + "'");
  p.every = static_cast<int>(k);
  return p;
}

CheckpointPolicy CheckpointPolicy::from_env() {
  return parse(std::getenv("PTLR_CKPT"), std::getenv("PTLR_CKPT_DIR"));
}

void save_rank_checkpoint(const std::string& path, const tlr::TlrMatrix& a,
                          const rt::Distribution& dist, int rank,
                          std::uint64_t frontier) {
  const std::string tmp = path + ".tmp";
  File f(std::fopen(tmp.c_str(), "wb"));
  PTLR_CHECK(f != nullptr, "cannot open for writing: " + tmp);
  try {
    std::vector<std::pair<int, int>> tiles;
    for (int i = 0; i < a.nt(); ++i)
      for (int j = 0; j <= i; ++j)
        if (dist.owner(i, j) == rank) tiles.emplace_back(i, j);
    const auto ntiles = static_cast<std::uint64_t>(tiles.size());

    write_u64(f.get(), kMagic);
    write_u64(f.get(), kVersion);
    write_u64(f.get(), static_cast<std::uint64_t>(rank));
    write_u64(f.get(), static_cast<std::uint64_t>(dist.nproc()));
    write_u64(f.get(), static_cast<std::uint64_t>(a.nt()));
    write_u64(f.get(), frontier);
    write_u64(f.get(), ntiles);
    for (const auto& [i, j] : tiles) {
      const std::vector<char> bytes = tlr::tile_to_bytes(a.at(i, j));
      write_u64(f.get(), static_cast<std::uint64_t>(i));
      write_u64(f.get(), static_cast<std::uint64_t>(j));
      write_u64(f.get(), static_cast<std::uint64_t>(bytes.size()));
      PTLR_CHECK(bytes.empty() ||
                     std::fwrite(bytes.data(), 1, bytes.size(), f.get()) ==
                         bytes.size(),
                 "checkpoint write failed");
    }
    // Crash consistency: data durable in the tmp file BEFORE the rename
    // makes it the checkpoint. A kill at any point leaves either the old
    // checkpoint or a complete new one.
    PTLR_CHECK(std::fflush(f.get()) == 0 && ::fsync(fileno(f.get())) == 0,
               "checkpoint flush failed: " + tmp);
    f.reset();
    PTLR_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0,
               "checkpoint rename failed: " + std::string(strerror(errno)));
  } catch (...) {
    f.reset();
    std::remove(tmp.c_str());
    throw;
  }
}

std::uint64_t load_rank_checkpoint(const std::string& path, tlr::TlrMatrix& a,
                                   const rt::Distribution& dist, int rank) {
  File f(std::fopen(path.c_str(), "rb"));
  PTLR_CHECK(f != nullptr, "cannot open for reading: " + path);
  PTLR_CHECK(std::fseek(f.get(), 0, SEEK_END) == 0, "cannot seek: " + path);
  const auto file_size = static_cast<std::uint64_t>(std::ftell(f.get()));
  PTLR_CHECK(std::fseek(f.get(), 0, SEEK_SET) == 0, "cannot seek: " + path);

  const Header h = read_header(f.get(), path, file_size);
  // The checkpoint must come from this exact configuration — a stale file
  // from a different run (other mesh size, other matrix) must be rejected,
  // not silently replayed into the wrong factorization.
  PTLR_CHECK(h.rank == static_cast<std::uint64_t>(rank) &&
                 h.nranks == static_cast<std::uint64_t>(dist.nproc()) &&
                 h.nt == static_cast<std::uint64_t>(a.nt()),
             "checkpoint configuration mismatch: " + path);

  for (std::uint64_t t = 0; t < h.ntiles; ++t) {
    const std::uint64_t i = read_u64(f.get(), path);
    const std::uint64_t j = read_u64(f.get(), path);
    const std::uint64_t nbytes = read_u64(f.get(), path);
    PTLR_CHECK(i < h.nt && j <= i, "corrupt checkpoint tile index: " + path);
    PTLR_CHECK(dist.owner(static_cast<int>(i), static_cast<int>(j)) == rank,
               "checkpoint tile not owned by this rank: " + path);
    // Bound the declared payload by the file BEFORE allocating it.
    const auto pos = static_cast<std::uint64_t>(std::ftell(f.get()));
    PTLR_CHECK(pos <= file_size && nbytes <= file_size - pos,
               "checkpoint tile exceeds file size: " + path);
    std::vector<char> bytes(static_cast<std::size_t>(nbytes));
    PTLR_CHECK(bytes.empty() ||
                   std::fread(bytes.data(), 1, bytes.size(), f.get()) ==
                       bytes.size(),
               "truncated checkpoint: " + path);
    a.at(static_cast<int>(i), static_cast<int>(j)) =
        tlr::tile_from_bytes(bytes);
  }
  return h.frontier;
}

std::uint64_t peek_checkpoint_frontier(const std::string& path) {
  File f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) return 0;  // no checkpoint yet: replay from scratch
  PTLR_CHECK(std::fseek(f.get(), 0, SEEK_END) == 0, "cannot seek: " + path);
  const auto file_size = static_cast<std::uint64_t>(std::ftell(f.get()));
  PTLR_CHECK(std::fseek(f.get(), 0, SEEK_SET) == 0, "cannot seek: " + path);
  return read_header(f.get(), path, file_size).frontier;
}

}  // namespace ptlr::core
