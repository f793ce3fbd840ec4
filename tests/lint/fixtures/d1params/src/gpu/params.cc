// D1 fixture: params.cc is no exemption; its getenv (line 4) is a finding.
#include <cstdlib>

const char *threads() { return std::getenv("RENDER_THREADS"); }
