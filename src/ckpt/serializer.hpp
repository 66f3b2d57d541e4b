// csmt::ckpt — deterministic checkpoint/restore (DESIGN.md §10).
//
// The Serializer is a direction-symmetric visitor: every stateful component
// implements one `serialize(...)` method whose body is a sequence of io()
// calls, and the same body both saves and loads — so the two directions can
// never drift apart. State is framed into named sections, each carrying its
// own length and checksum, under a fixed-size header (magic, format
// version, spec hash, cycle). The file layer (serializer.cpp) validates the
// header and every section checksum *before* any component state is
// mutated; the in-stream `check()` calls then verify machine shape (thread
// counts, window sizes, program length) against the live machine before the
// matching state is applied. Loads are bounds-checked throughout: a
// truncated or hostile payload makes the serializer fail sticky and read
// zeros, never out of bounds.
//
// Everything here is header-inline so header-only components (Rng, Tlb,
// MshrFile, PagedMemory, ...) can serialize themselves without a link
// dependency; only the file I/O lives in the csmt_ckpt library.
#pragma once

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace csmt::ckpt {

/// Bump on any incompatible change to the checkpoint payload layout; files
/// written by other versions are refused cleanly (DESIGN.md §10).
/// v2: cluster context bindings travel as data, the scheduler serializes
/// its allocation-epoch horizon, and dynamic runs append an "alloc" section
/// (controller + policy state).
/// v4: integers travel as varints, cache arrays and BTBs write only their
/// live entries (sparse records), and section checksums hash 64-bit words
/// (section_checksum).
inline constexpr std::uint32_t kFormatVersion = 4;

/// File magic: the first 8 bytes of every checkpoint.
inline constexpr char kMagic[8] = {'C', 'S', 'M', 'T', 'C', 'K', 'P', 'T'};

/// FNV-1a over raw bytes — same hash family the sweep cache keys use. Guards
/// the 40-byte file header, whose layout every format version shares, so a
/// file from another version is refused by its version field, not by a
/// checksum mismatch.
inline std::uint64_t fnv1a_bytes(const std::uint8_t* data, std::size_t n) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Section checksum: FNV-1a over 64-bit little-endian words, with a
/// xor-shift after each multiply so a word's high bits also reach the low
/// bits of the state; a trailing partial word is hashed byte by byte. Every
/// step is a bijection of the state, so any change confined to one word is
/// always detected. One step per 8 bytes instead of per byte.
inline std::uint64_t section_checksum(const std::uint8_t* data,
                                      std::size_t n) {
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t h = 1469598103934665603ull;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, data + i, 8);
    h ^= w;
    h *= kPrime;
    h ^= h >> 29;
  }
  for (; i < n; ++i) {
    h ^= data[i];
    h *= kPrime;
  }
  return h;
}

/// Header metadata carried outside the payload, readable without touching
/// any machine state.
struct CheckpointMeta {
  std::uint32_t version = kFormatVersion;
  std::uint64_t spec_hash = 0;  ///< sweep::spec_hash of the run's point
  Cycle cycle = 0;              ///< simulated cycle the snapshot was taken at
};

class Serializer {
 public:
  enum class Mode { kSave, kLoad };

  /// Save mode: components append into a fresh payload buffer.
  Serializer() : mode_(Mode::kSave) {}

  /// Save mode writing over `scratch`, whose bytes become room for the
  /// payload: a caller that snapshots repeatedly hands each save the
  /// previous payload back, so later saves never regrow the buffer.
  static Serializer saving_into(std::vector<std::uint8_t> scratch) {
    Serializer s;
    s.buf_ = std::move(scratch);
    return s;
  }

  /// Load mode over a payload whose section checksums the file layer has
  /// already verified (Serializer re-verifies them per section anyway, so
  /// in-memory round-trip tests need no file).
  explicit Serializer(std::vector<std::uint8_t> payload)
      : mode_(Mode::kLoad), buf_(std::move(payload)) {}

  bool saving() const { return mode_ == Mode::kSave; }
  bool loading() const { return mode_ == Mode::kLoad; }

  /// False after the first framing/bounds/shape violation; all subsequent
  /// reads return zeros and writes are dropped, so a failed load is safe to
  /// run to completion and inspect.
  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  void fail(const std::string& what) {
    if (ok_) {
      ok_ = false;
      error_ = what;
    }
  }

  // --- primitives ------------------------------------------------------

  /// Integers (any width, any signedness) travel as LEB128 varints of
  /// their 64-bit value: seven bits per byte, low group first, the top bit
  /// set on every byte but the last. Most checkpoint words are small
  /// counts, indices, flags and cycle stamps, so most take one to three
  /// bytes instead of eight.
  template <std::integral T>
  void io(T& v) {
    if (saving()) {
      put_var(static_cast<std::uint64_t>(v));
    } else {
      v = static_cast<T>(get_var());
    }
  }

  void io(bool& v) {
    if (saving()) {
      put_var(v ? 1 : 0);
    } else {
      v = get_var() != 0;
    }
  }

  /// Doubles travel as their exact bit pattern — the resume contract is bit
  /// identity, so no text round-trip is ever allowed near a double.
  void io(double& v) {
    if (saving()) {
      put_u64(std::bit_cast<std::uint64_t>(v));
    } else {
      v = std::bit_cast<double>(get_u64());
    }
  }

  template <typename E>
    requires std::is_enum_v<E>
  void io(E& e) {
    if (saving()) {
      put_var(static_cast<std::uint64_t>(
          static_cast<std::underlying_type_t<E>>(e)));
    } else {
      e = static_cast<E>(static_cast<std::underlying_type_t<E>>(get_var()));
    }
  }

  void io(std::string& sv) {
    std::uint64_t n = sv.size();
    io(n);
    if (loading()) {
      if (n > remaining()) {
        fail("string length exceeds payload");
        sv.clear();
        return;
      }
      sv.assign(reinterpret_cast<const char*>(buf_.data() + cursor_),
                static_cast<std::size_t>(n));
      cursor_ += static_cast<std::size_t>(n);
    } else {
      append(sv.data(), sv.size());
    }
  }

  /// Raw bytes, caller-sized (bulk state like memory pages). On a failed or
  /// truncated load the destination is zero-filled.
  void io_bytes(void* p, std::size_t n) {
    if (saving()) {
      append(p, n);
    } else {
      if (!ok_ || remaining() < n) {
        fail("byte run exceeds payload");
        std::memset(p, 0, n);
        return;
      }
      std::memcpy(p, buf_.data() + cursor_, n);
      cursor_ += n;
    }
  }

  /// Length-prefixed vector of scalars. On load the vector is resized to
  /// the stored length (bounded by the remaining payload, so a hostile
  /// length cannot balloon memory).
  template <typename T>
  void io_vec(std::vector<T>& v) {
    std::uint64_t n = v.size();
    io(n);
    if (loading()) {
      if (!bounded_count(n)) {
        v.clear();
        return;
      }
      v.resize(static_cast<std::size_t>(n));
    }
    for (auto& e : v) io(e);
  }

  /// A sparse table of `size` entries: the count of entries for which
  /// `live(i)` holds, then for each of them, in increasing index order, its
  /// index followed by whatever `record(i)` visits. The loader refuses a
  /// count above `size` and an index out of range or not above its
  /// predecessor (so no duplicates) before record(i) reads into entry i;
  /// the caller resets the dead entries beforehand and checks the fields
  /// record() read. `what` names the entries in error messages.
  template <typename Live, typename Record>
  void io_sparse(std::uint64_t size, Live live, Record record,
                 const char* what) {
    if (saving()) {
      std::uint64_t n = 0;
      for (std::uint64_t i = 0; i < size; ++i) n += live(i) ? 1 : 0;
      io(n);
      for (std::uint64_t i = 0; i < size; ++i) {
        if (!live(i)) continue;
        io(i);
        record(i);
      }
      return;
    }
    std::uint64_t n = 0;
    io(n);
    if (ok_ && n > size) {
      fail(std::string(what) + " count exceeds the table");
      return;
    }
    std::uint64_t next = 0;  // smallest index the next record may use
    for (std::uint64_t k = 0; k < n && ok_; ++k) {
      std::uint64_t i = 0;
      io(i);
      if (ok_ && (i < next || i >= size)) {
        fail(std::string(what) + " index out of range or out of order");
      }
      if (!ok_) return;
      record(i);
      next = i + 1;
    }
  }

  /// Shape verification: saves the value; on load compares it against the
  /// live machine's value and fails (pre-mutation) on mismatch. Used for
  /// everything the machine derives from its config — thread counts, window
  /// sizes, program length — so a checkpoint from a different machine is
  /// refused before any state is touched.
  template <std::integral T>
  void check(T v, const char* what) {
    if (saving()) {
      put_var(static_cast<std::uint64_t>(v));
      return;
    }
    const std::uint64_t got = get_var();
    if (ok_ && got != static_cast<std::uint64_t>(v)) {
      fail(std::string("shape mismatch: ") + what);
    }
  }

  /// True iff a stored element count can fit in the remaining payload
  /// (every element costs at least one byte). Fails when not.
  bool bounded_count(std::uint64_t n) {
    if (!ok_) return false;
    if (n > remaining()) {
      fail("element count exceeds payload");
      return false;
    }
    return true;
  }

  // --- sections --------------------------------------------------------
  // Frame: [u32 name_len][name][u64 payload_len][payload]
  //        [u64 section_checksum(payload)].
  // Single level, fixed order; a name mismatch on load means the writer and
  // reader disagree about the component sequence and the load fails before
  // that component's state is applied.

  void begin_section(std::string_view name) {
    if (!ok_) return;
    if (in_section_) {
      fail("nested section");
      return;
    }
    in_section_ = true;
    if (saving()) {
      put_u32(static_cast<std::uint32_t>(name.size()));
      append(name.data(), name.size());
      put_u64(0);  // length placeholder, patched by end_section()
      section_start_ = cursor_;
      return;
    }
    const std::uint32_t len = get_u32();
    if (!ok_ || len > 255 || remaining() < len) {
      fail("malformed section name");
      return;
    }
    const std::string_view got(
        reinterpret_cast<const char*>(buf_.data() + cursor_), len);
    if (got != name) {
      fail("section order mismatch: expected '" + std::string(name) +
           "', found '" + std::string(got) + "'");
      return;
    }
    cursor_ += len;
    const std::uint64_t plen = get_u64();
    if (!ok_ || remaining() < plen + 8) {
      fail("section '" + std::string(name) + "' exceeds payload");
      return;
    }
    section_start_ = cursor_;
    section_end_ = cursor_ + static_cast<std::size_t>(plen);
  }

  void end_section() {
    if (!in_section_) {
      if (ok_) fail("end_section without begin_section");
      return;
    }
    in_section_ = false;
    if (!ok_) return;
    if (saving()) {
      const std::uint64_t plen = cursor_ - section_start_;
      std::memcpy(buf_.data() + section_start_ - 8, &plen, 8);
      put_u64(section_checksum(buf_.data() + section_start_,
                               static_cast<std::size_t>(plen)));
      return;
    }
    if (cursor_ != section_end_) {
      fail("section size mismatch (component read a different amount than "
           "was written)");
      return;
    }
    const std::uint64_t want = section_checksum(
        buf_.data() + section_start_, section_end_ - section_start_);
    const std::uint64_t got = get_u64();
    if (ok_ && got != want) fail("section checksum mismatch");
  }

  /// The assembled payload (save mode, after all sections are closed).
  std::vector<std::uint8_t> take_payload() {
    buf_.resize(cursor_);
    return std::move(buf_);
  }

 private:
  /// Load mode: unread payload bytes.
  std::size_t remaining() const { return buf_.size() - cursor_; }

  // Save mode writes at cursor_ (the payload length so far); buf_.size() is
  // room that grows geometrically, so an append is a bounds check and a
  // copy, never a per-write resize. The host is little-endian, and so is
  // the format.
  std::uint8_t* room(std::size_t n) {
    if (buf_.size() - cursor_ < n)
      buf_.resize(std::max(2 * buf_.size(), cursor_ + n + 4096));
    return buf_.data() + cursor_;
  }
  void append(const void* p, std::size_t n) {
    if (n == 0) return;
    std::memcpy(room(n), p, n);
    cursor_ += n;
  }

  void put_u64(std::uint64_t v) { append(&v, 8); }
  void put_u32(std::uint32_t v) { append(&v, 4); }
  std::uint64_t get_u64() {
    if (!ok_ || remaining() < 8) {
      fail("read past end of payload");
      return 0;
    }
    std::uint64_t v;
    std::memcpy(&v, buf_.data() + cursor_, 8);
    cursor_ += 8;
    return v;
  }
  void put_var(std::uint64_t v) {
    std::uint8_t* const start = room(10);
    std::uint8_t* p = start;
    for (; v >= 0x80; v >>= 7) *p++ = static_cast<std::uint8_t>(v | 0x80);
    *p++ = static_cast<std::uint8_t>(v);
    cursor_ += static_cast<std::size_t>(p - start);
  }
  /// Refuses a varint that runs off the payload or past 64 bits.
  std::uint64_t get_var() {
    std::uint64_t v = 0;
    for (unsigned shift = 0; ok_ && shift < 64; shift += 7) {
      if (remaining() == 0) {
        fail("read past end of payload");
        break;
      }
      const std::uint8_t b = buf_[cursor_++];
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) {
        if (shift == 63 && b > 1) break;  // bits beyond the 64th
        return v;
      }
    }
    fail("malformed integer");
    return 0;
  }
  std::uint32_t get_u32() {
    if (!ok_ || remaining() < 4) {
      fail("read past end of payload");
      return 0;
    }
    std::uint32_t v;
    std::memcpy(&v, buf_.data() + cursor_, 4);
    cursor_ += 4;
    return v;
  }

  Mode mode_;
  std::vector<std::uint8_t> buf_;
  std::size_t cursor_ = 0;  ///< load: read position; save: payload length
  bool ok_ = true;
  std::string error_;
  bool in_section_ = false;
  std::size_t section_start_ = 0;
  std::size_t section_end_ = 0;
};

// --- file layer (csmt_ckpt library) -------------------------------------

/// Result of reading a checkpoint file. `ok == false` means the file was
/// missing, truncated, corrupted, or written by another format version; the
/// payload is empty and no state may be restored from it.
struct ReadResult {
  bool ok = false;
  std::string error;
  CheckpointMeta meta;
  std::vector<std::uint8_t> payload;
};

/// Atomically writes `payload` under a validated header (write to a
/// temporary, then rename) so a crash mid-write never leaves a torn
/// checkpoint. Returns false (with `*error` set) on I/O failure.
bool write_checkpoint(const std::string& path, const CheckpointMeta& meta,
                      const std::vector<std::uint8_t>& payload,
                      std::string* error);

/// Reads and fully validates a checkpoint: magic, format version, header
/// checksum, payload size, and every section checksum — all before the
/// caller applies any state. Any violation yields ok == false with a
/// human-readable reason.
ReadResult read_checkpoint(const std::string& path);

}  // namespace csmt::ckpt
