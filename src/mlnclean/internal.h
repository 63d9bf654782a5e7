// Implementation utilities that used to leak through the public umbrella
// header: the executors, wall-clock timers, string helpers, and the
// deterministic RNG. They are stable enough to build tools against, but
// they are not part of the cleaning API surface — include this header (or
// the specific ones below) explicitly when you need them.

#ifndef MLNCLEAN_MLNCLEAN_INTERNAL_H_
#define MLNCLEAN_MLNCLEAN_INTERNAL_H_

#include "common/executor.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/timer.h"

#endif  // MLNCLEAN_MLNCLEAN_INTERNAL_H_
