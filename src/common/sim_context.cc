#include "common/sim_context.hh"

namespace texpim {

namespace {

/** Innermost installed context for this thread (null = none). */
thread_local SimContext *tls_current = nullptr;

} // namespace

SimContext &
SimContext::processDefault()
{
    // Function-local static: constructed before the first StatGroup
    // that registers through current() (its constructor calls this),
    // therefore destroyed after the last one — no static-destruction-
    // order hazard.
    // texpim-lint: allow(D4) registry-owned process-default context; worker
    // threads install their own SimContext via Scope, so no cross-thread
    // mutation of this instance during parallel rendering.
    static SimContext ctx;
    return ctx;
}

SimContext &
SimContext::current()
{
    return tls_current != nullptr ? *tls_current : processDefault();
}

SimContext::Scope::Scope(SimContext &ctx) : prev_(tls_current)
{
    tls_current = &ctx;
    TraceEvents::syncActive();
    Profiler::syncActive();
}

SimContext::Scope::~Scope()
{
    tls_current = prev_;
    TraceEvents::syncActive();
    Profiler::syncActive();
}

} // namespace texpim
