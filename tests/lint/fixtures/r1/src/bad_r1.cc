// R1 fixture: a name-keyed stat lookup two calls below a replay root
// is caught with its call path, while the registering constructor,
// held references, an allow()ed lazy registration and code no replay
// root reaches all stay quiet.
struct StatCounter
{
    unsigned long value = 0;
    void bump() { ++value; }
};

struct StatGroup
{
    StatCounter slot;
    StatCounter &counter(const char *name) { return slot; }
};

struct Path
{
    // texpim-lint: replay-root fixture per-request timing entry point
    virtual void replay() = 0;
};

struct PathImpl : Path
{
    StatGroup stats_;
    StatCounter &hits_;
    StatCounter *lazy_ = nullptr;

    PathImpl() : hits_(stats_.counter("hits")) {} // registration: quiet

    void replay() override;
    void account();
    void tally();
    void lazy();
    void report();
};

void
PathImpl::replay()
{
    hits_.bump(); // held reference: quiet
    account();
    lazy();
}

void
PathImpl::account()
{
    tally();
}

void
PathImpl::tally()
{
    stats_.counter("misses").bump(); // R1: name lookup two calls deep
}

void
PathImpl::lazy()
{
    if (lazy_ == nullptr) {
        // texpim-lint: allow(R1) fixture lazy first-use registration
        lazy_ = &stats_.counter("lazy");
    }
    lazy_->bump();
}

void
PathImpl::report()
{
    stats_.counter("hits").bump(); // not reachable from replay: quiet
}
