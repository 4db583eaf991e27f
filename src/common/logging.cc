#include "common/logging.h"

#include <cstdlib>
#include <iostream>

namespace groupform::common {

FatalMessage::FatalMessage(const char* file, int line) {
  // Strip the directory part for readable prefixes.
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  stream_ << "[F " << base << ":" << line << "] ";
}

FatalMessage::~FatalMessage() {
  std::cerr << stream_.str() << std::endl;
  std::abort();
}

}  // namespace groupform::common
