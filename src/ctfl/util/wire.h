#ifndef CTFL_UTIL_WIRE_H_
#define CTFL_UTIL_WIRE_H_

// Little-endian primitive encoding shared by the bundle container
// (store/bundle.cc), the delta log (stream/delta_log.cc), the replay file
// (replay/replay_file.cc) and the query-service wire protocol
// (serve/protocol.cc). Writer appends to an owned buffer; Reader walks a
// borrowed string_view — zero-copy over bundle sections and socket frames
// alike — and reports truncation as Status instead of reading past the
// end. The `context` string names the payload in error messages
// ("bundle section payload truncated", "serve frame payload truncated",
// ...).
//
// Records are not coded by hand on top of these. Each record's layout is
// declared once, as a field list,
//
//   template <class IO, wire::Is<Record> T> void Fields(IO& io, T& r) {
//     io.U32(r.id);
//     io.Seq32(r.scores, 8, "score", wire::AsF64);
//   }
//
// which Encoder visits with a const record (appending every field) and
// Decoder with a mutable one (reading every field back), so the two
// directions cannot drift apart. Decoder's rules (DESIGN.md §8.1):
//
//   - The first error wins: every call after it is ignored.
//   - Every count that sizes a container is read by Count32/Count64 (which
//     Seq32/Seq64 call) and checked against the unread bytes at the
//     element's nonzero minimum encoded size before anything is sized. A
//     minimum of 0 bounds nothing and is itself InvalidArgument.
//   - Const8 accepts only its one value; Enum8 only values in its range.
//   - Finish() rejects trailing bytes; a record that accepts trailing
//     fields reads status() instead.

#include <concepts>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "ctfl/util/bitset.h"
#include "ctfl/util/result.h"

namespace ctfl {
namespace wire {

class Writer {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) U8(static_cast<uint8_t>(v >> (8 * i)));
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) U8(static_cast<uint8_t>(v >> (8 * i)));
  }
  void F64(double v);
  /// u32 length prefix + raw bytes.
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    buf_.append(s);
  }
  void Words(const std::vector<uint64_t>& words) {
    for (uint64_t w : words) U64(w);
  }
  size_t size() const { return buf_.size(); }
  std::string Take() { return std::move(buf_); }

 private:
  std::string buf_;
};

class Reader {
 public:
  /// `data` must outlive the reader. `context` prefixes error messages.
  explicit Reader(std::string_view data, std::string context = "wire")
      : data_(data), context_(std::move(context)) {}

  Status U8(uint8_t* out) { return Fixed(out); }
  Status U32(uint32_t* out) { return Fixed(out); }
  Status U64(uint64_t* out) { return Fixed(out); }
  Status F64(double* out) {
    uint64_t bits = 0;
    CTFL_RETURN_IF_ERROR(Fixed(&bits));
    std::memcpy(out, &bits, sizeof(*out));
    return Status::OK();
  }
  Status Str(std::string* out);
  Status Words(size_t count, std::vector<uint64_t>* out);

  bool AtEnd() const { return pos_ == data_.size(); }
  /// Unread bytes: the most any count read from the payload can cover.
  size_t remaining() const { return data_.size() - pos_; }
  const std::string& context() const { return context_; }
  /// InvalidArgument naming `what` when bytes remain unconsumed.
  Status ExpectEnd(const char* what) const;

 private:
  /// One little-endian unsigned integer; inline, as every field read is
  /// one of these.
  template <class T>
  Status Fixed(T* out) {
    if (pos_ + sizeof(T) > data_.size()) return Truncated();
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<uint8_t>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += sizeof(T);
    *out = v;
    return Status::OK();
  }
  Status Truncated() const;

  std::string_view data_;
  std::string context_;
  size_t pos_ = 0;
};

/// True for `U` and `const U`: one Fields overload serves both visitors.
template <class T, class U>
concept Is = std::same_as<std::remove_const_t<T>, U>;

/// Appends a record's fields in declaration order.
class Encoder {
 public:
  static constexpr bool kDecoding = false;

  template <class V>
  void U8(const V& v) { w_.U8(static_cast<uint8_t>(v)); }
  template <class V>
  void U32(const V& v) { w_.U32(static_cast<uint32_t>(v)); }
  template <class V>
  void U64(const V& v) { w_.U64(static_cast<uint64_t>(v)); }
  void F64(double v) { w_.F64(v); }
  void Str(std::string_view s) { w_.Str(s); }
  /// A reserved byte: always `value`.
  void Const8(uint8_t value, const char* /*what*/) { w_.U8(value); }
  /// An enum byte in [lo, hi].
  template <class V>
  void Enum8(const V& v, uint8_t /*lo*/, uint8_t /*hi*/, const char*) {
    U8(v);
  }
  /// A u64 that ends the record and that older writers left out.
  void TrailingU64(uint64_t v) { w_.U64(v); }
  /// ceil(size / 64) words.
  void Bits(const Bitset& bits, size_t /*size*/) { w_.Words(bits.words()); }
  /// 0/1 flags packed 8 a byte, first flag in the low bit.
  void Flags(const std::vector<uint8_t>& flags, size_t /*n*/);
  /// A decode-side validation; the encoder writes what it is given.
  void Check(bool /*good*/, const char* /*message*/) {}

  /// Element counts: the container's size as a u32 / u64.
  size_t Count32(size_t n, size_t /*min_bytes*/, const char* /*what*/) {
    w_.U32(static_cast<uint32_t>(n));
    return n;
  }
  size_t Count64(size_t n, size_t /*min_bytes*/, const char* /*what*/) {
    w_.U64(n);
    return n;
  }
  /// Visits every element of `v` (whose size a Count call wrote).
  template <class Vec, class F>
  void Elements(const Vec& v, size_t /*n*/, F&& elem) {
    for (const auto& x : v) elem(*this, x);
  }
  /// A count followed by its elements, each at least `min_bytes` long.
  template <class Vec, class F>
  void Seq32(const Vec& v, size_t min_bytes, const char* what, F&& elem) {
    Elements(v, Count32(v.size(), min_bytes, what), elem);
  }
  template <class Vec, class F>
  void Seq64(const Vec& v, size_t min_bytes, const char* what, F&& elem) {
    Elements(v, Count64(v.size(), min_bytes, what), elem);
  }

  std::string Take() { return w_.Take(); }

 private:
  Writer w_;
};

/// Reads a record's fields back in declaration order (see the rules at
/// the top of this file).
class Decoder {
 public:
  static constexpr bool kDecoding = true;

  /// `data` must outlive the decoder. `context` prefixes error messages.
  Decoder(std::string_view data, std::string context)
      : r_(data, std::move(context)) {}

  template <class V>
  void U8(V& v) { Read(&Reader::U8, v); }
  template <class V>
  void U32(V& v) { Read(&Reader::U32, v); }
  template <class V>
  void U64(V& v) { Read(&Reader::U64, v); }
  void F64(double& v) { Read(&Reader::F64, v); }
  void Str(std::string& s) {
    if (ok()) Keep(r_.Str(&s));
  }
  /// A byte other than `value` is InvalidArgument
  /// "<context> <what> <byte> (expected <value>)".
  void Const8(uint8_t value, const char* what);
  /// A byte outside [lo, hi] is InvalidArgument
  /// "<context> has unknown <what> <byte>".
  template <class V>
  void Enum8(V& v, uint8_t lo, uint8_t hi, const char* what) {
    uint8_t byte = 0;
    U8(byte);
    if (!ok()) return;
    if (byte < lo || byte > hi) return UnknownValue(what, byte);
    v = static_cast<V>(byte);
  }
  void TrailingU64(uint64_t& v) {
    if (!r_.AtEnd()) U64(v);
  }
  void Bits(Bitset& bits, size_t size);
  void Flags(std::vector<uint8_t>& flags, size_t n);
  void Check(bool good, const char* message) {
    if (ok() && !good) Fail(Status::InvalidArgument(message));
  }

  /// Reads a count and checks it against the unread bytes at `min_bytes`
  /// an element; 0 after any error.
  size_t Count32(size_t /*size*/, size_t min_bytes, const char* what) {
    uint32_t n = 0;
    U32(n);
    return Bound(n, min_bytes, what);
  }
  size_t Count64(size_t /*size*/, size_t min_bytes, const char* what) {
    uint64_t n = 0;
    U64(n);
    return Bound(n, min_bytes, what);
  }
  /// Sizes `v` to `n` (a checked count) and reads each element.
  template <class Vec, class F>
  void Elements(Vec& v, size_t n, F&& elem) {
    v.clear();
    v.resize(n);
    for (auto& x : v) {
      if (!ok()) return;
      elem(*this, x);
    }
  }
  template <class Vec, class F>
  void Seq32(Vec& v, size_t min_bytes, const char* what, F&& elem) {
    Elements(v, Count32(0, min_bytes, what), elem);
  }
  template <class Vec, class F>
  void Seq64(Vec& v, size_t min_bytes, const char* what, F&& elem) {
    Elements(v, Count64(0, min_bytes, what), elem);
  }

  bool ok() const { return status_.ok(); }
  /// The first error, or OK. Trailing bytes are not checked.
  const Status& status() const { return status_; }
  /// The first error, else InvalidArgument naming `what` when bytes
  /// remain unread.
  Status Finish(const char* what) const {
    return ok() ? r_.ExpectEnd(what) : status_;
  }

 private:
  /// Records `error` unless an earlier one is kept.
  void Fail(Status error) {
    if (ok()) status_ = std::move(error);
  }
  template <class Raw, class V>
  void Read(Status (Reader::*read)(Raw*), V& v) {
    if (!ok()) return;
    Raw raw{};
    if (Keep((r_.*read)(&raw))) v = static_cast<V>(raw);
  }
  bool Keep(Status&& s) {
    if (s.ok()) return true;
    status_ = std::move(s);
    return false;
  }
  size_t Bound(uint64_t count, size_t min_bytes, const char* what);
  void UnknownValue(const char* what, uint8_t byte);

  Reader r_;
  Status status_;
};

/// Element visitors for Seq32/Seq64 over plain values.
inline constexpr auto AsU32 = [](auto& io, auto& v) { io.U32(v); };
inline constexpr auto AsF64 = [](auto& io, auto& v) { io.F64(v); };
inline constexpr auto AsStr = [](auto& io, auto& v) { io.Str(v); };

/// The bytes of one record: `fields(encoder)` appends each field.
template <class F>
std::string Encode(F&& fields) {
  Encoder encoder;
  fields(encoder);
  return encoder.Take();
}

/// Reads one record that fills all of `data`: `fields(decoder)` reads each
/// field, and bytes left over are an error naming `what`.
template <class F>
Status Decode(std::string_view data, std::string context, const char* what,
              F&& fields) {
  Decoder decoder(data, std::move(context));
  fields(decoder);
  return decoder.Finish(what);
}

}  // namespace wire
}  // namespace ctfl

#endif  // CTFL_UTIL_WIRE_H_
