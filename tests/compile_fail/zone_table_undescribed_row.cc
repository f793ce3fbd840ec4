// Must not compile: zones.hh here is the real one with a row's
// description blanked (tests/CMakeLists.txt writes that copy).
#include "common/prof/zones.hh"
