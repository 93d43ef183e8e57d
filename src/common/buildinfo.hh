/**
 * @file
 * Build configuration baked in at compile time. Host-throughput
 * numbers are meaningless without the build type attached, so every
 * perf-reporting surface (perfbench, the bench targets) stamps its
 * output with these constants.
 */

#ifndef DGSIM_COMMON_BUILDINFO_HH
#define DGSIM_COMMON_BUILDINFO_HH

namespace dgsim::buildinfo
{

#ifndef DGSIM_BUILD_TYPE
#define DGSIM_BUILD_TYPE "unknown"
#endif

/// CMAKE_BUILD_TYPE at configure time ("Release", "RelWithDebInfo", ...).
inline constexpr const char *kBuildType = DGSIM_BUILD_TYPE;

/// True when configured with -DDGSIM_NATIVE=ON (-march=native).
#ifdef DGSIM_NATIVE_ARCH
inline constexpr bool kNativeArch = true;
#else
inline constexpr bool kNativeArch = false;
#endif

/// True for the build type throughput numbers should be quoted from.
inline constexpr bool
isReleaseBuild()
{
    constexpr const char *want = "Release";
    const char *have = kBuildType;
    for (int i = 0;; ++i) {
        if (want[i] != have[i])
            return false;
        if (want[i] == '\0')
            return true;
    }
}

} // namespace dgsim::buildinfo

#endif // DGSIM_COMMON_BUILDINFO_HH
