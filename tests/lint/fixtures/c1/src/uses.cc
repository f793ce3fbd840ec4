struct Cfg { unsigned long getU64(const char *, unsigned long) const; unsigned getUnsigned(const char *, unsigned, unsigned, unsigned) const; };

int readKeys(const Cfg &cfg)
{
    unsigned long a = cfg.getU64("used_key", 1);
    unsigned long b = cfg.getU64("unlisted_key", 2);
    unsigned long c = cfg.getU64("undocumented_key", 3);
    return int(a + b + c);
}

struct Stats { int &counter(const char *name); };

int touchMore(const Cfg &cfg, Stats &stats)
{
    stats.counter("frames");
    return int(cfg.getUnsigned("sim.depth", 4, 1, 8));
}
