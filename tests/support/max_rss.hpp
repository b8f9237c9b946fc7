// Peak resident set of the test process, for tests that bound how much
// memory an operation may touch. ctest runs each gtest case in its own
// process, so the high-water mark starts near the binary's own size.
#pragma once

#include <sys/resource.h>

namespace gputn::test {

/// ru_maxrss of this process, in KiB (Linux).
inline long max_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

}  // namespace gputn::test
