// P1 fixture: the required e2e case — a deliberately injected stat
// write inside a phase-root sample() must be caught, through an
// intermediate call, while const stat reads stay quiet.
struct StatGroup
{
    double sum = 0.0;
    void add(double v) { sum += v; }
    unsigned size() const { return 1; }
};

struct PathImpl
{
    StatGroup stats_;

    void
    leak()
    {
        stats_.add(1.0); // the injected stat write
    }

    // texpim-lint: phase-root fixture functional phase-1 entry point
    void
    sample()
    {
        (void)stats_.size(); // const read: quiet
        leak();              // P1 via the call graph
        TEXPIM_PROF_COUNT(kZoneFixture, 1); // P1: zone charge in phase
    }

    // not reachable from any root: mutating stats here is fine
    void
    replay()
    {
        stats_.add(2.0);
    }
};
