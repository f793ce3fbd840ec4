/**
 * @file
 * Call-graph rules P1/P2/T1/E1/R1: phase-purity, thread-confinement
 * and resolved-once stats enforced by reachability instead of
 * line-local pattern matching.
 *
 * Roots:
 *   - P1/P2/T1 walk from the functional-phase roots: every definition
 *     carrying a `texpim-lint: phase-root` marker, every override of
 *     a marker'd declaration (`TexturePath::sampleQuad`), and any
 *     `--phase-root Class::method` given on the command line.
 *   - E1 walks from every destructor and every noexcept function.
 *   - R1 walks from the timing-replay roots: definitions and
 *     declarations (with every override) carrying a `texpim-lint:
 *     replay-root` marker.
 *
 * Findings anchor at the offending line in the offending file and
 * carry the root→offender call path in the message; the key is
 * `<what>@<function>`.
 */

#include "callgraph.hh"

#include <algorithm>
#include <cstdio>

namespace texpim_lint {

namespace {

/** Serial-phase-only classes: any reachable call edge into one of
 *  these is a P1 finding. Mirrors DESIGN.md "Deterministic
 *  attribution": stats, traces, profiler charges and fault decisions
 *  all belong to the serial timing replay. */
const std::set<std::string> &
serialOnlyClasses()
{
    static const std::set<std::string> k = {
        "StatGroup",   "StatCounter",  "StatAverage", "StatHistogram",
        "StatRegistry", "TraceEvents", "Profiler",    "ProfZone",
        "FaultInjector", "TrafficAttribution",
    };
    return k;
}

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

struct Ctx
{
    const CallGraph &g;
    const std::vector<SourceFile> &files;
    const Options &opt;
    std::vector<Finding> &out;
    std::set<std::string> emitted; //!< de-dup across overlapping walks

    void report(const FunctionDef &fn, int line, const std::string &rule,
                const std::string &key, const std::string &message)
    {
        const SourceFile &file = files[fn.fileIndex];
        if (isAllowed(file, line, rule))
            return;
        std::string dedup = rule + "|" + file.path + "|" + key;
        if (!emitted.insert(dedup).second)
            return;
        Finding f;
        f.rule = rule;
        f.path = file.path;
        f.line = line;
        f.key = key;
        f.message = message;
        out.push_back(f);
    }
};

/** Root ids: definitions with `flag` set and every override of a
 *  marked declaration in `declRoots`. */
std::vector<int>
rootIds(const CallGraph &g, bool FunctionDef::*flag,
        const std::vector<std::pair<std::string, std::string>> &declRoots)
{
    std::set<int> roots;
    for (const FunctionDef &fn : g.funcs)
        if (fn.*flag)
            roots.insert(fn.id);
    for (const auto &[cls, method] : declRoots) {
        std::set<std::string> leafs = {cls};
        auto di = g.derived.find(cls);
        if (di != g.derived.end())
            leafs.insert(di->second.begin(), di->second.end());
        auto bi = g.byName.find(method);
        if (bi == g.byName.end())
            continue;
        for (int id : bi->second)
            if (leafs.count(g.funcs[id].className))
                roots.insert(id);
    }
    return std::vector<int>(roots.begin(), roots.end());
}

/** Is some index entry for `classLeaf` marked with the given flag? */
bool
classFlag(const CallGraph &g, const std::string &classLeaf,
          bool ClassInfo::*flag)
{
    auto it = g.classByName.find(classLeaf);
    if (it == g.classByName.end())
        return false;
    for (int idx : it->second)
        if (g.classes[idx].*flag)
            return true;
    // marks on a base class cover the hierarchy
    auto ai = g.ancestors.find(classLeaf);
    if (ai != g.ancestors.end())
        for (const std::string &a : ai->second) {
            auto bi = g.classByName.find(a);
            if (bi == g.classByName.end())
                continue;
            for (int idx : bi->second)
                if (g.classes[idx].*flag)
                    return true;
        }
    return false;
}

/** Member names (variables) of a class and its ancestors. */
std::set<std::string>
memberNames(const CallGraph &g, const std::string &classLeaf)
{
    std::set<std::string> out;
    std::set<std::string> leafs = {classLeaf};
    auto ai = g.ancestors.find(classLeaf);
    if (ai != g.ancestors.end())
        leafs.insert(ai->second.begin(), ai->second.end());
    for (const std::string &leaf : leafs) {
        auto ci = g.classByName.find(leaf);
        if (ci == g.classByName.end())
            continue;
        for (int idx : ci->second)
            for (const auto &kv : g.classes[idx].memberType)
                out.insert(kv.first);
    }
    return out;
}

void
runP1(Ctx &c, const std::set<int> &reach, const std::map<int, int> &pred)
{
    for (int id : reach) {
        const FunctionDef &fn = c.g.funcs[id];
        for (const CallSite &cs : fn.calls) {
            if (startsWith(cs.name, "TEXPIM_PROF_") ||
                startsWith(cs.name, "TEXPIM_TRACE_")) {
                c.report(fn, cs.line, "P1", cs.name + "@" + fn.display,
                         cs.name + " charged in the functional phase (" +
                             reachPath(c.g, pred, id) + ")");
                continue;
            }
            std::vector<int> r = resolveCall(c.g, fn, cs);
            for (int tid : r) {
                const FunctionDef &callee = c.g.funcs[tid];
                if (!serialOnlyClasses().count(callee.className))
                    continue;
                // const reads (size(), value()) don't mutate the
                // attribution state; the rule targets mutation, and
                // every mutator (add, remove, +=, sample) is non-const
                if (callee.isConst)
                    continue;
                c.report(fn, cs.line,
                         "P1", callee.display + "@" + fn.display,
                         "serial-only API " + callee.display +
                             " reached from the functional phase (" +
                             reachPath(c.g, pred, id) + ")");
            }
        }
    }
}

void
runP2(Ctx &c, const std::set<int> &reach, const std::map<int, int> &pred)
{
    static const std::set<std::string> kWriteOps = {
        "=",  "+=", "-=", "*=", "/=",  "%=",
        "&=", "|=", "^=", "<<=", ">>=",
    };
    for (int id : reach) {
        const FunctionDef &fn = c.g.funcs[id];
        if (fn.isCtor)
            continue; // a constructor initializes its own fresh object
        bool ownerExempt =
            !fn.className.empty() &&
            classFlag(c.g, fn.className, &ClassInfo::callerOwned);
        std::set<std::string> members =
            fn.className.empty() ? std::set<std::string>()
                                 : memberNames(c.g, fn.className);
        const std::vector<Tok> &toks = c.g.tokens[fn.fileIndex];
        for (const auto &range : fn.tokenRanges) {
            for (int i = range.first; i < range.second; ++i) {
                const Tok &t = toks[i];
                if (!t.ident)
                    continue;
                bool receiverPrefixed =
                    i > range.first &&
                    (toks[i - 1].text == "." || toks[i - 1].text == "->" ||
                     toks[i - 1].text == "::");
                if (receiverPrefixed)
                    continue;
                bool written = false;
                if (i + 1 < range.second &&
                    (kWriteOps.count(toks[i + 1].text) ||
                     toks[i + 1].text == "++" || toks[i + 1].text == "--"))
                    written = true;
                if (i > range.first && (toks[i - 1].text == "++" ||
                                        toks[i - 1].text == "--"))
                    written = true;
                if (!written)
                    continue;
                if (fn.localType.count(t.text))
                    continue; // local/param (possibly shadowing)
                if (!ownerExempt && members.count(t.text)) {
                    c.report(fn, t.line, "P2",
                             t.text + "@" + fn.display,
                             "member `" + t.text + "` of " +
                                 fn.className +
                                 " written in the functional phase (" +
                                 reachPath(c.g, pred, id) + ")");
                    continue;
                }
                if (c.g.mutableStatics.count(t.text)) {
                    c.report(fn, t.line, "P2",
                             t.text + "@" + fn.display,
                             "mutable static `" + t.text +
                                 "` written in the functional phase (" +
                                 reachPath(c.g, pred, id) + ")");
                }
            }
        }
    }
}

void
runT1(Ctx &c, const std::set<int> &reach, const std::map<int, int> &pred)
{
    for (int id : reach) {
        const FunctionDef &fn = c.g.funcs[id];
        for (const CallSite &cs : fn.calls) {
            if (cs.kind == CallKind::Construct)
                continue; // constructing a local copy is thread-private
            std::vector<int> r = resolveCall(c.g, fn, cs);
            for (int tid : r) {
                const FunctionDef &callee = c.g.funcs[tid];
                if (callee.isConst || callee.isCtor || callee.isLambda)
                    continue;
                if (!classFlag(c.g, callee.className,
                               &ClassInfo::poolShared))
                    continue;
                // a by-value local of the class is a private copy
                if (cs.kind == CallKind::Member && cs.recv.size() == 1 &&
                    fn.localByValue.count(cs.recv[0]))
                    continue;
                c.report(fn, cs.line, "T1",
                         callee.display + "@" + fn.display,
                         "non-const call " + callee.display +
                             " on pool-shared receiver in the "
                             "functional phase (" +
                             reachPath(c.g, pred, id) + ")");
            }
        }
    }
}

void
runE1(Ctx &c)
{
    std::vector<int> roots;
    for (const FunctionDef &fn : c.g.funcs)
        if (fn.isDtor || fn.isNoexcept)
            roots.push_back(fn.id);
    std::map<int, int> pred;
    std::set<int> reach = reachableFrom(c.g, roots, &pred);
    for (int id : reach) {
        const FunctionDef &fn = c.g.funcs[id];
        for (const CallSite &cs : fn.calls) {
            if (cs.name != "TEXPIM_PANIC")
                continue;
            c.report(fn, cs.line, "E1", "TEXPIM_PANIC@" + fn.display,
                     "TEXPIM_PANIC reachable from a destructor/noexcept "
                     "context (" +
                         reachPath(c.g, pred, id) + ")");
        }
        const std::vector<Tok> &toks = c.g.tokens[fn.fileIndex];
        for (const auto &range : fn.tokenRanges) {
            for (int i = range.first; i < range.second; ++i) {
                if (toks[i].text != "throw")
                    continue;
                c.report(fn, toks[i].line, "E1", "throw@" + fn.display,
                         "`throw` reachable from a destructor/noexcept "
                         "context (" +
                             reachPath(c.g, pred, id) + ")");
            }
        }
    }
}

void
runR1(Ctx &c)
{
    // The name-keyed get-or-create accessors. Each builds a string key
    // and walks a std::map; timing code holds the reference the
    // constructor's registering call returned instead.
    static const std::set<std::string> kNameKeyed = {
        "counter", "average", "histogram"};
    std::vector<int> roots =
        rootIds(c.g, &FunctionDef::replayRoot, c.g.replayDeclRoots);
    std::map<int, int> pred;
    std::set<int> reach = reachableFrom(c.g, roots, &pred);
    for (int id : reach) {
        const FunctionDef &fn = c.g.funcs[id];
        for (const CallSite &cs : fn.calls) {
            if (!kNameKeyed.count(cs.name))
                continue;
            for (int tid : resolveCall(c.g, fn, cs)) {
                const FunctionDef &callee = c.g.funcs[tid];
                if (callee.className != "StatGroup")
                    continue;
                c.report(fn, cs.line, "R1", callee.display + "@" + fn.display,
                         "name-keyed " + callee.display +
                             " lookup reached from the timing replay (" +
                             reachPath(c.g, pred, id) +
                             "); register once and hold the reference");
                break;
            }
        }
    }
}

} // namespace

void
runPhaseRules(const std::vector<SourceFile> &files, const Options &opt,
              std::vector<Finding> &out)
{
    CallGraph g = buildCallGraph(files);
    if (opt.callgraphDump) {
        dumpCallGraph(g, files, opt);
        return;
    }
    Ctx c{g, files, opt, out, {}};

    std::vector<int> roots =
        rootIds(g, &FunctionDef::phaseRoot, g.declRoots);
    std::map<int, int> pred;
    std::set<int> reach = reachableFrom(g, roots, &pred);

    if (ruleEnabled(opt, "P1"))
        runP1(c, reach, pred);
    if (ruleEnabled(opt, "P2"))
        runP2(c, reach, pred);
    if (ruleEnabled(opt, "T1"))
        runT1(c, reach, pred);
    if (ruleEnabled(opt, "E1"))
        runE1(c);
    if (ruleEnabled(opt, "R1"))
        runR1(c);
}

} // namespace texpim_lint
