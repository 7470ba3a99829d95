#include "ctfl/util/wire.h"

#include <algorithm>
#include <cstring>

#include "ctfl/util/string_util.h"

namespace ctfl {
namespace wire {

void Writer::F64(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

Status Reader::Str(std::string* out) {
  uint32_t len = 0;
  CTFL_RETURN_IF_ERROR(U32(&len));
  if (pos_ + len > data_.size()) return Truncated();
  out->assign(data_.substr(pos_, len));
  pos_ += len;
  return Status::OK();
}

Status Reader::Words(size_t count, std::vector<uint64_t>* out) {
  if (count > data_.size() / 8 || pos_ + 8 * count > data_.size()) {
    return Truncated();
  }
  out->resize(count);
  for (size_t i = 0; i < count; ++i) {
    uint64_t v = 0;
    CTFL_RETURN_IF_ERROR(U64(&v));
    (*out)[i] = v;
  }
  return Status::OK();
}

Status Reader::ExpectEnd(const char* what) const {
  if (!AtEnd()) {
    return Status::InvalidArgument(StrFormat("%s '%s' has %zu trailing bytes",
                                             context_.c_str(), what,
                                             data_.size() - pos_));
  }
  return Status::OK();
}

Status Reader::Truncated() const {
  return Status::InvalidArgument(context_ + " payload truncated");
}

void Encoder::Flags(const std::vector<uint8_t>& flags, size_t /*n*/) {
  uint8_t packed = 0;
  for (size_t i = 0; i < flags.size(); ++i) {
    if (flags[i]) packed |= static_cast<uint8_t>(1u << (i % 8));
    if (i % 8 == 7) {
      w_.U8(packed);
      packed = 0;
    }
  }
  if (flags.size() % 8 != 0) w_.U8(packed);
}

void Decoder::Const8(uint8_t value, const char* what) {
  uint8_t byte = value;
  U8(byte);
  if (ok() && byte != value) {
    Fail(Status::InvalidArgument(StrFormat("%s %s %u (expected %u)",
                                           r_.context().c_str(), what, byte,
                                           value)));
  }
}

void Decoder::Bits(Bitset& bits, size_t size) {
  if (!ok()) return;
  std::vector<uint64_t> words;
  if (!Keep(r_.Words((size + 63) / 64, &words))) return;
  Result<Bitset> decoded = Bitset::FromWords(size, std::move(words));
  if (!decoded.ok()) return Fail(decoded.status());
  bits = std::move(decoded).value();
}

void Decoder::Flags(std::vector<uint8_t>& flags, size_t n) {
  flags.clear();
  // Never more flags than the unread bytes can hold.
  flags.reserve(std::min(n, 8 * r_.remaining()));
  for (size_t i = 0; i < n && ok(); i += 8) {
    uint8_t packed = 0;
    U8(packed);
    for (size_t b = 0; b < 8 && i + b < n; ++b) {
      flags.push_back((packed >> b) & 1);
    }
  }
}

size_t Decoder::Bound(uint64_t count, size_t min_bytes, const char* what) {
  if (!ok()) return 0;
  if (min_bytes == 0) {
    Fail(Status::InvalidArgument(
        StrFormat("%s: %s count has no nonzero element size to bound it",
                  r_.context().c_str(), what)));
    return 0;
  }
  if (count > r_.remaining() / min_bytes) {
    Fail(Status::InvalidArgument(StrFormat("%s: %s count exceeds its payload",
                                           r_.context().c_str(), what)));
    return 0;
  }
  return static_cast<size_t>(count);
}

void Decoder::UnknownValue(const char* what, uint8_t byte) {
  Fail(Status::InvalidArgument(StrFormat(
      "%s has unknown %s %u", r_.context().c_str(), what, byte)));
}

}  // namespace wire
}  // namespace ctfl
