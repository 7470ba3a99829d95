#ifndef CTFL_UTIL_WIRE_H_
#define CTFL_UTIL_WIRE_H_

// Little-endian primitive encoding shared by the bundle container
// (store/bundle.cc) and the query-service wire protocol
// (serve/protocol.cc). Writer appends to an owned buffer; Reader walks a
// borrowed string_view — zero-copy over bundle sections and socket frames
// alike — and reports truncation as Status instead of reading past the
// end. The `context` string names the payload in error messages
// ("bundle section payload truncated", "serve frame truncated", ...).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

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
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
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

  Status U8(uint8_t* out);
  Status U32(uint32_t* out);
  Status U64(uint64_t* out);
  Status I64(int64_t* out);
  Status F64(double* out);
  Status Str(std::string* out);
  Status Words(size_t count, std::vector<uint64_t>* out);

  bool AtEnd() const { return pos_ == data_.size(); }
  /// Unread bytes: the most any count read from the payload can cover.
  size_t remaining() const { return data_.size() - pos_; }
  /// InvalidArgument naming `what` unless `count` elements of at least
  /// `min_bytes` encoded bytes each fit in the unread bytes. A decoder
  /// checks every count it reads from the payload before sizing anything
  /// from it.
  Status CheckCount(uint64_t count, size_t min_bytes, const char* what) const;
  /// InvalidArgument naming `what` when bytes remain unconsumed.
  Status ExpectEnd(const char* what) const;

 private:
  Status Truncated() const;

  std::string_view data_;
  std::string context_;
  size_t pos_ = 0;
};

}  // namespace wire
}  // namespace ctfl

#endif  // CTFL_UTIL_WIRE_H_
