// Must not compile: a profile charge names a zone-table row.
#include "common/prof/profiler.hh"
void f() { TEXPIM_PROF_COUNT(texpim::prof::kZoneNone, 1); }
