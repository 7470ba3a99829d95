#ifndef CTFL_UTIL_JSON_H_
#define CTFL_UTIL_JSON_H_

#include <string>

namespace ctfl {

/// Escapes `s` for embedding inside a JSON string literal (quotes,
/// backslash, control characters).
std::string JsonEscape(const std::string& s);

}  // namespace ctfl

#endif  // CTFL_UTIL_JSON_H_
