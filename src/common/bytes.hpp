// Refcounted immutable byte buffer — the unit the distributed layers pass
// around without copying.
//
// A tile is serialized exactly once (tlr::tile_to_bytes) into one Bytes;
// every holder after that — the broadcast fan-out, the per-peer send
// queues, the unacked set, the rejoin sent-log, the mailbox
// envelope — shares the same allocation through a shared_ptr to a const
// vector. Immutability is what makes the sharing safe: a retransmission
// and a fresh send can reference one buffer concurrently because nobody
// can write through it.
//
// The interface deliberately mirrors the read side of std::vector<char>
// (data/size/empty/operator[]/iterators, equality against vectors), so
// converting a payload path from by-value vectors is mechanical. The one
// mutation shim is prefix(), which returns a truncated *copy* — used by
// the wire-corruption tests, never on a hot path.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <memory>
#include <vector>

namespace ptlr {

class Bytes {
 public:
  Bytes() = default;
  /// Implicit on purpose: existing call sites hand over vectors; the move
  /// is the single copy the payload ever pays.
  Bytes(std::vector<char> v)  // NOLINT(google-explicit-constructor)
      : buf_(std::make_shared<const std::vector<char>>(std::move(v))) {}
  Bytes(std::initializer_list<char> il)  // NOLINT(google-explicit-constructor)
      : Bytes(std::vector<char>(il)) {}

  [[nodiscard]] const char* data() const {
    return buf_ ? buf_->data() : nullptr;
  }
  [[nodiscard]] std::size_t size() const { return buf_ ? buf_->size() : 0; }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] char operator[](std::size_t i) const { return (*buf_)[i]; }
  [[nodiscard]] const char* begin() const { return data(); }
  [[nodiscard]] const char* end() const { return data() + size(); }

  /// The underlying vector (an empty static one when default-constructed),
  /// for APIs that still speak std::vector<char>.
  [[nodiscard]] const std::vector<char>& vec() const {
    static const std::vector<char> kEmpty;
    return buf_ ? *buf_ : kEmpty;
  }

  /// A truncated copy of the first n bytes (n is clamped to size()).
  [[nodiscard]] Bytes prefix(std::size_t n) const {
    const std::size_t m = n < size() ? n : size();
    return Bytes(std::vector<char>(data(), data() + m));
  }

  friend bool operator==(const Bytes& a, const Bytes& b) {
    return a.vec() == b.vec();
  }
  friend bool operator!=(const Bytes& a, const Bytes& b) { return !(a == b); }
  friend bool operator==(const Bytes& a, const std::vector<char>& b) {
    return a.vec() == b;
  }
  friend bool operator==(const std::vector<char>& a, const Bytes& b) {
    return a == b.vec();
  }
  friend bool operator!=(const Bytes& a, const std::vector<char>& b) {
    return !(a == b);
  }
  friend bool operator!=(const std::vector<char>& a, const Bytes& b) {
    return !(a == b);
  }

 private:
  std::shared_ptr<const std::vector<char>> buf_;
};

}  // namespace ptlr
