// Must not compile: a stat description is a non-empty constant.
#include "common/stats.hh"
void f(texpim::StatGroup &g) { g.counter("c", ""); }
