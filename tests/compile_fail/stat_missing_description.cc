// Must not compile: registering a stat takes a description.
#include "common/stats.hh"
void f(texpim::StatGroup &g) { g.counter("c"); }
