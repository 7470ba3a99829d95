#include "ctfl/util/wire.h"

#include <cstring>

#include "ctfl/util/string_util.h"

namespace ctfl {
namespace wire {

void Writer::F64(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

Status Reader::U8(uint8_t* out) {
  if (pos_ + 1 > data_.size()) return Truncated();
  *out = static_cast<uint8_t>(data_[pos_++]);
  return Status::OK();
}

Status Reader::U32(uint32_t* out) {
  if (pos_ + 4 > data_.size()) return Truncated();
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  *out = v;
  return Status::OK();
}

Status Reader::U64(uint64_t* out) {
  if (pos_ + 8 > data_.size()) return Truncated();
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  *out = v;
  return Status::OK();
}

Status Reader::I64(int64_t* out) {
  uint64_t bits = 0;
  CTFL_RETURN_IF_ERROR(U64(&bits));
  *out = static_cast<int64_t>(bits);
  return Status::OK();
}

Status Reader::F64(double* out) {
  uint64_t bits = 0;
  CTFL_RETURN_IF_ERROR(U64(&bits));
  std::memcpy(out, &bits, sizeof(*out));
  return Status::OK();
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

Status Reader::CheckCount(uint64_t count, size_t min_bytes,
                          const char* what) const {
  if (min_bytes != 0 && count > remaining() / min_bytes) {
    return Status::InvalidArgument(StrFormat(
        "%s: %s count exceeds its payload", context_.c_str(), what));
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

}  // namespace wire
}  // namespace ctfl
