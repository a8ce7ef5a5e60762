/**
 * @file
 * How many CFGs the toolchain builds, counted from outside: the link
 * wraps verify::buildCfg (`--wrap`, see CMakeLists.txt) with a counter.
 * Should the symbol ever change, the wrapper goes unused and the count
 * stays 0 rather than breaking the build.
 */
#pragma once

#include <cstdint>

namespace layerbench {

/** verify::buildCfg calls so far, from any caller. */
uint64_t cfgBuilds();

} // namespace layerbench
