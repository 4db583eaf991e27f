#ifndef GROUPFORM_COMMON_LOGGING_H_
#define GROUPFORM_COMMON_LOGGING_H_

#include <ostream>
#include <sstream>

namespace groupform::common {

/// A failed check. Streams into an internal buffer, then on destruction
/// writes one "[F file:line] ..." line to stderr and aborts the process.
class FatalMessage {
 public:
  FatalMessage(const char* file, int line);
  ~FatalMessage();

  FatalMessage(const FatalMessage&) = delete;
  FatalMessage& operator=(const FatalMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

/// Gives the failing branch of GF_CHECK the passing branch's type (void).
struct FatalMessageVoidify {
  void operator&(std::ostream&) {}
};

}  // namespace groupform::common

/// Always-on invariant check; logs the failed condition and aborts.
#define GF_CHECK(cond)                                                \
  (cond) ? (void)0                                                    \
         : ::groupform::common::FatalMessageVoidify() &               \
               ::groupform::common::FatalMessage(__FILE__, __LINE__)  \
                       .stream()                                      \
                   << "Check failed: " #cond " "

#define GF_CHECK_EQ(a, b) GF_CHECK((a) == (b))
#define GF_CHECK_NE(a, b) GF_CHECK((a) != (b))
#define GF_CHECK_LT(a, b) GF_CHECK((a) < (b))
#define GF_CHECK_LE(a, b) GF_CHECK((a) <= (b))
#define GF_CHECK_GT(a, b) GF_CHECK((a) > (b))
#define GF_CHECK_GE(a, b) GF_CHECK((a) >= (b))

/// Debug-only check; compiles out in NDEBUG builds.
#ifdef NDEBUG
#define GF_DCHECK(cond) GF_CHECK(true)
#else
#define GF_DCHECK(cond) GF_CHECK(cond)
#endif

#endif  // GROUPFORM_COMMON_LOGGING_H_
