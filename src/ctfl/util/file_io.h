#ifndef CTFL_UTIL_FILE_IO_H_
#define CTFL_UTIL_FILE_IO_H_

#include <string>

#include "ctfl/util/result.h"

namespace ctfl {

/// The whole file at `path`, read in one call sized by the file's length
/// (the bundle, delta-log and replay readers and the CSV digest all load
/// their input through it). IoError when the file cannot be opened, sized
/// or fully read.
Result<std::string> ReadFileBytes(const std::string& path);

}  // namespace ctfl

#endif  // CTFL_UTIL_FILE_IO_H_
