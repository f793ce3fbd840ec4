/**
 * @file
 * The `WxH` positional argument the example programs share. Each side
 * is range-checked like the texpim CLI's width= and height= keys, so a
 * malformed or out-of-range value is a clean fatal (exit 1), never a
 * panic or a bad_alloc.
 */

#ifndef TEXPIM_EXAMPLES_EXAMPLE_ARGS_HH
#define TEXPIM_EXAMPLES_EXAMPLE_ARGS_HH

#include <string>

#include "common/config.hh"
#include "common/logging.hh"
#include "scene/game_profiles.hh"

namespace texpim {

/** `WxH` into `wl`; each side in [1, 65536] (FragRecord stores u16
 *  pixel coordinates). */
inline void
parseResolution(const std::string &arg, Workload &wl)
{
    size_t x = arg.find('x');
    if (x == std::string::npos || x != arg.rfind('x'))
        TEXPIM_FATAL("bad resolution '", arg, "' (expected WxH)");
    wl.width = Config::parseUnsigned("width", arg.substr(0, x), 1, 65536);
    wl.height = Config::parseUnsigned("height", arg.substr(x + 1), 1, 65536);
}

} // namespace texpim

#endif // TEXPIM_EXAMPLES_EXAMPLE_ARGS_HH
