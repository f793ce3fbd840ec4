struct Cfg { int getInt(const char *, int) const; unsigned getUnsigned(const char *, unsigned, unsigned, unsigned) const; };

int readKeys(const Cfg &cfg)
{
    int a = cfg.getInt("used_key", 1);
    int b = cfg.getInt("unlisted_key", 2);
    int c = cfg.getInt("undocumented_key", 3);
    return a + b + c;
}

struct Stats { int &counter(const char *name); };

int touchMore(const Cfg &cfg, Stats &stats)
{
    stats.counter("frames");
    return int(cfg.getUnsigned("sim.depth", 4, 1, 8));
}
