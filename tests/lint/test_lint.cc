/**
 * @file
 * End-to-end tests for the texpim-lint binary: every rule fires on its
 * seeded fixture violation at the exact line, stays quiet on the clean
 * counterpart, honors allow() annotations, and uses the documented
 * exit codes (0 clean, 1 findings, 2 usage error).
 *
 * The fixtures live in tests/lint/fixtures/<rule>/ — each is a tiny
 * repo root of its own so the path-scoping rules (src/ vs bench/)
 * apply to the fixtures exactly as they do to the real tree. The
 * binary path and fixture root come in as compile definitions.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include <sys/wait.h>

namespace {

struct LintRun
{
    int exitCode = -1;
    std::string out;
};

/** Run the lint binary with `args`, capturing stdout+stderr. */
LintRun
runLint(const std::string &args)
{
    LintRun r;
    std::string cmd = std::string(TEXPIM_LINT_BIN) + " " + args + " 2>&1";
    FILE *p = popen(cmd.c_str(), "r");
    if (p == nullptr) {
        ADD_FAILURE() << "popen failed for: " << cmd;
        return r;
    }
    char buf[4096];
    size_t n;
    while ((n = fread(buf, 1, sizeof buf, p)) > 0)
        r.out.append(buf, n);
    int status = pclose(p);
    r.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return r;
}

std::string
fixture(const std::string &name)
{
    return std::string(TEXPIM_LINT_FIXTURES) + "/" + name;
}

int
countOf(const std::string &hay, const std::string &needle)
{
    int n = 0;
    for (size_t at = hay.find(needle); at != std::string::npos;
         at = hay.find(needle, at + needle.size()))
        ++n;
    return n;
}

TEST(TexpimLint, D1FlagsSeededNondeterminismAtExactLines)
{
    LintRun r = runLint("--repo-root " + fixture("d1") + " --rules D1,A0 src");
    EXPECT_EQ(r.exitCode, 1) << r.out;
    EXPECT_NE(r.out.find("src/bad_d1.cc:5: [D1]"), std::string::npos)
        << r.out;
    EXPECT_NE(r.out.find("src/bad_d1.cc:7: [D1]"), std::string::npos)
        << r.out;
    EXPECT_NE(r.out.find("src/bad_d1.cc:10: [D1]"), std::string::npos)
        << r.out;
    EXPECT_EQ(countOf(r.out, "[D1]"), 3) << r.out;
    // The clean file's lookalikes (member .time(), identifiers and
    // strings containing rand/getenv, comments) and its justified
    // allow(D1) std::time() use must all stay quiet — including A0,
    // because the justification is long enough.
    EXPECT_EQ(r.out.find("clean_d1.cc"), std::string::npos) << r.out;
    EXPECT_EQ(r.out.find("[A0]"), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("texpim-lint: 3 finding(s)"), std::string::npos) << r.out;
}

TEST(TexpimLint, D1FlagsGetenvInParamsCc)
{
    // The key table's file reads settings through Config like any
    // other: an environment read there is a finding too.
    LintRun r =
        runLint("--repo-root " + fixture("d1params") + " --rules D1 src");
    EXPECT_EQ(r.exitCode, 1) << r.out;
    EXPECT_NE(r.out.find("src/gpu/params.cc:4: [D1]"),
              std::string::npos)
        << r.out;
    EXPECT_EQ(countOf(r.out, "[D1]"), 1) << r.out;
}

TEST(TexpimLint, D2FlagsUnorderedIterationButHonorsAllow)
{
    LintRun r = runLint("--repo-root " + fixture("d2") + " --rules D2,A0 src");
    EXPECT_EQ(r.exitCode, 1) << r.out;
    EXPECT_NE(r.out.find("src/bad_d2.cc:7: [D2]"), std::string::npos)
        << r.out;
    EXPECT_NE(r.out.find("'table'"), std::string::npos) << r.out;
    EXPECT_EQ(countOf(r.out, "[D2]"), 1) << r.out;
    // clean_d2.cc iterates an unordered_map too, but under an
    // annotation that covers the loop on the following line.
    EXPECT_EQ(r.out.find("clean_d2.cc"), std::string::npos) << r.out;
}

TEST(TexpimLint, D3FlagsSortWithoutTieBreakComment)
{
    LintRun r = runLint("--repo-root " + fixture("d3") + " --rules D3 src");
    EXPECT_EQ(r.exitCode, 1) << r.out;
    EXPECT_NE(r.out.find("src/bad_d3.cc:6: [D3]"), std::string::npos)
        << r.out;
    EXPECT_EQ(countOf(r.out, "[D3]"), 1) << r.out;
    // clean_d3.cc uses stable_sort, and its one std::sort carries a
    // tie-break comment within the three preceding lines.
    EXPECT_EQ(r.out.find("clean_d3.cc"), std::string::npos) << r.out;
}

TEST(TexpimLint, D4FlagsMutableStaticButExemptsImmutable)
{
    LintRun r = runLint("--repo-root " + fixture("d4") + " --rules D4 src");
    EXPECT_EQ(r.exitCode, 1) << r.out;
    EXPECT_NE(r.out.find("src/bad_d4.cc:3: [D4]"), std::string::npos)
        << r.out;
    EXPECT_EQ(countOf(r.out, "[D4]"), 1) << r.out;
    // const, constexpr, thread_local, static_assert and static
    // function declarations are all exempt.
    EXPECT_EQ(r.out.find("clean_d4.cc"), std::string::npos) << r.out;
}

TEST(TexpimLint, A0FlagsTooShortJustificationButStillSuppresses)
{
    LintRun r = runLint("--repo-root " + fixture("a0") + " --rules D1,A0 src");
    EXPECT_EQ(r.exitCode, 1) << r.out;
    // The annotation suppresses the D1 finding even though its reason
    // is too short — but the annotation itself is flagged.
    EXPECT_NE(r.out.find("src/short_reason.cc:3: [A0]"), std::string::npos)
        << r.out;
    EXPECT_EQ(r.out.find("[D1]"), std::string::npos) << r.out;
    EXPECT_EQ(countOf(r.out, "[A0]"), 1) << r.out;
}

TEST(TexpimLint, C1ReconcilesTableSourcesAndDocsThreeWays)
{
    LintRun r = runLint("--repo-root " + fixture("c1") +
                        " --rules C1 --key-table src/params.cc "
                        "--doc README.md src");
    EXPECT_EQ(r.exitCode, 1) << r.out;
    // Read in src/ but missing from the table.
    EXPECT_NE(r.out.find("src/uses.cc:6: [C1]"), std::string::npos)
        << r.out;
    EXPECT_NE(r.out.find("'unlisted_key'"), std::string::npos) << r.out;
    // In the table but never read anywhere.
    EXPECT_NE(r.out.find("src/params.cc:5: [C1]"), std::string::npos)
        << r.out;
    EXPECT_NE(r.out.find("'dead_key'"), std::string::npos) << r.out;
    // In the table but absent from the docs.
    EXPECT_NE(r.out.find("src/params.cc:6: [C1]"), std::string::npos)
        << r.out;
    EXPECT_NE(r.out.find("'undocumented_key'"), std::string::npos) << r.out;
    // A documented key that does not exist (stale docs).
    EXPECT_NE(r.out.find("README.md:8: [C1]"), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("'ghost_key'"), std::string::npos) << r.out;
    // A prose mention of a key in a known namespace that does not
    // exist (the doc-mention extension).
    EXPECT_NE(r.out.find("README.md:13: [C1]"), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("'sim.ghost'"), std::string::npos) << r.out;
    // A command-key table entry naming a key that is not in the table
    // (a retired key left behind). Reader lists are not keys, and a
    // map outside the markers is not a command-key table.
    EXPECT_NE(r.out.find("src/cli.cc:20: [C1]"), std::string::npos)
        << r.out;
    EXPECT_NE(r.out.find("'retired_key'"), std::string::npos) << r.out;
    EXPECT_EQ(r.out.find("'outside_key'"), std::string::npos) << r.out;
    EXPECT_EQ(countOf(r.out, "[C1]"), 6) << r.out;
    // used_key is listed, read and documented: never mentioned.
    EXPECT_EQ(r.out.find("'used_key'"), std::string::npos) << r.out;
    // sim.depth exists, sim.frames is a registered stat leaf, and
    // other.thing is outside every known namespace: all quiet.
    EXPECT_EQ(r.out.find("'sim.depth'"), std::string::npos) << r.out;
    EXPECT_EQ(r.out.find("'sim.frames'"), std::string::npos) << r.out;
    EXPECT_EQ(r.out.find("'other.thing'"), std::string::npos) << r.out;
}

TEST(TexpimLint, ScannerIgnoresRawStringsSplicedCommentsAndIfZero)
{
    LintRun r =
        runLint("--repo-root " + fixture("scanner") + " --rules D1,A0 src");
    EXPECT_EQ(r.exitCode, 1) << r.out;
    // Violations adjacent to the blind-spot constructs still fire: on
    // the raw-string line, in a live #else branch, and after an
    // ordinary (non-spliced) comment.
    EXPECT_NE(r.out.find("src/bad_scan.cc:4: [D1]"), std::string::npos)
        << r.out;
    EXPECT_NE(r.out.find("src/bad_scan.cc:8: [D1]"), std::string::npos)
        << r.out;
    EXPECT_NE(r.out.find("src/bad_scan.cc:11: [D1]"), std::string::npos)
        << r.out;
    EXPECT_EQ(countOf(r.out, "[D1]"), 3) << r.out;
    // rand()/getenv() inside raw strings (plain and custom-delimiter),
    // on a line hidden by a backslash-spliced line comment, and in
    // #if 0 / #if false blocks (including nesting) never fire.
    EXPECT_EQ(r.out.find("clean_scan.cc"), std::string::npos) << r.out;
}

TEST(TexpimLint, CallgraphDumpIndexesGnarlyCpp)
{
    LintRun r = runLint("--repo-root " + fixture("callgraph") +
                        " --callgraph-dump src");
    EXPECT_EQ(r.exitCode, 0) << r.out;
    // Out-of-line methods attach to their class; the hierarchy is
    // indexed.
    EXPECT_NE(r.out.find("class Derived src/graph.cc:16 bases=Base"),
              std::string::npos)
        << r.out;
    EXPECT_NE(r.out.find("func Base::go"), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("func Derived::go"), std::string::npos) << r.out;
    // Overloads must-not-miss: an unqualified call to an overloaded
    // free function targets every overload.
    EXPECT_NE(r.out.find("call overload line=48 -> overload, overload"),
              std::string::npos)
        << r.out;
    // Virtual dispatch: a call through a Base receiver also targets
    // every override in the derived closure...
    EXPECT_NE(r.out.find("member go line=56 -> Base::go, Derived::go"),
              std::string::npos)
        << r.out;
    // ...unless explicitly qualified, which pins the target.
    EXPECT_NE(r.out.find("qualified go line=49 -> Base::go"),
              std::string::npos)
        << r.out;
    // A lambda assigned inside a member function hangs off its host,
    // and its body is indexed like any function.
    EXPECT_NE(r.out.find("lambda -> <lambda src/graph.cc:33>"),
              std::string::npos)
        << r.out;
    EXPECT_NE(r.out.find("call overload line=33 -> overload, overload"),
              std::string::npos)
        << r.out;
    // Templates resolve by name; constructors resolve via the local
    // declaration; a receiver of a never-defined type stays external
    // (the documented std::function indirection hole likewise).
    EXPECT_NE(r.out.find("call twice line=68 -> twice"), std::string::npos)
        << r.out;
    EXPECT_NE(r.out.find("construct Holder line=65 -> Holder::Holder"),
              std::string::npos)
        << r.out;
    EXPECT_NE(r.out.find("call pick line=67 -> (external)"),
              std::string::npos)
        << r.out;
    EXPECT_NE(r.out.find("call hook line=36 -> (external)"),
              std::string::npos)
        << r.out;
}

TEST(TexpimLint, P1CatchesInjectedStatWriteInSample)
{
    // The acceptance case: a stat write smuggled into a phase-root
    // sample() through an intermediate call is caught with the path.
    LintRun r =
        runLint("--repo-root " + fixture("phase") + " --rules P1,A0 src");
    EXPECT_EQ(r.exitCode, 1) << r.out;
    EXPECT_NE(r.out.find("src/bad_p1.cc:18: [P1]"), std::string::npos)
        << r.out;
    EXPECT_NE(r.out.find("StatGroup::add"), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("PathImpl::sample -> PathImpl::leak"),
              std::string::npos)
        << r.out;
    // A zone charge in the phase is P1 too.
    EXPECT_NE(r.out.find("src/bad_p1.cc:27: [P1]"), std::string::npos)
        << r.out;
    EXPECT_NE(r.out.find("TEXPIM_PROF_COUNT"), std::string::npos) << r.out;
    EXPECT_EQ(countOf(r.out, "[P1]"), 2) << r.out;
    // The const stats_.size() read and the unreachable replay()'s stat
    // write are both fine.
    EXPECT_EQ(r.out.find("PathImpl::replay"), std::string::npos) << r.out;
}

TEST(TexpimLint, P2FlagsMemberAndStaticWritesHonoringExemptions)
{
    LintRun r = runLint("--repo-root " + fixture("phase") +
                        " --rules P2,A0 src/bad_p2.cc");
    EXPECT_EQ(r.exitCode, 1) << r.out;
    EXPECT_NE(r.out.find("src/bad_p2.cc:16: [P2]"), std::string::npos)
        << r.out;
    EXPECT_NE(r.out.find("member `total`"), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("src/bad_p2.cc:17: [P2]"), std::string::npos)
        << r.out;
    EXPECT_NE(r.out.find("mutable static `g_ticks`"), std::string::npos)
        << r.out;
    EXPECT_EQ(countOf(r.out, "[P2]"), 2) << r.out;
    // The constructor's write, the local `total2` shadow-alike, and the
    // caller-owned Scratch's writes are all exempt.
    EXPECT_EQ(r.out.find("Accum::Accum"), std::string::npos) << r.out;
    EXPECT_EQ(r.out.find("total2"), std::string::npos) << r.out;
    EXPECT_EQ(r.out.find("Scratch"), std::string::npos) << r.out;
}

TEST(TexpimLint, T1FlagsNonConstCallsOnPoolSharedReceivers)
{
    LintRun r =
        runLint("--repo-root " + fixture("phase") + " --rules T1,A0 src");
    EXPECT_EQ(r.exitCode, 1) << r.out;
    // Virtual dispatch reports the base method and every override.
    EXPECT_NE(r.out.find("src/bad_t1.cc:25: [T1]"), std::string::npos)
        << r.out;
    EXPECT_NE(r.out.find("Store::mutate"), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("SubStore::mutate"), std::string::npos) << r.out;
    EXPECT_EQ(countOf(r.out, "[T1]"), 2) << r.out;
    // The const peek() and the mutate() on a by-value local copy are
    // both fine.
    EXPECT_EQ(r.out.find("src/bad_t1.cc:26"), std::string::npos) << r.out;
    EXPECT_EQ(r.out.find("src/bad_t1.cc:28"), std::string::npos) << r.out;
}

TEST(TexpimLint, E1FlagsPanicAndThrowInDtorNoexceptContexts)
{
    LintRun r =
        runLint("--repo-root " + fixture("phase") + " --rules E1,A0 src");
    EXPECT_EQ(r.exitCode, 1) << r.out;
    // TEXPIM_PANIC out-of-line but reachable from a destructor.
    EXPECT_NE(r.out.find("src/bad_e1.cc:15: [E1]"), std::string::npos)
        << r.out;
    EXPECT_NE(r.out.find("Guard::~Guard -> Guard::finish"),
              std::string::npos)
        << r.out;
    // A literal throw inside a noexcept function.
    EXPECT_NE(r.out.find("src/bad_e1.cc:21: [E1]"), std::string::npos)
        << r.out;
    EXPECT_EQ(countOf(r.out, "[E1]"), 2) << r.out;
    // The same macro on an ordinary failure path stays quiet.
    EXPECT_EQ(r.out.find("plainPanic"), std::string::npos) << r.out;
}

TEST(TexpimLint, R1FlagsNameKeyedStatLookupUnderReplayRoot)
{
    // A name-keyed lookup two calls below an override of a replay-root
    // declaration is caught with the root->offender path.
    LintRun r =
        runLint("--repo-root " + fixture("r1") + " --rules R1,A0 src");
    EXPECT_EQ(r.exitCode, 1) << r.out;
    EXPECT_NE(r.out.find("src/bad_r1.cc:55: [R1]"), std::string::npos)
        << r.out;
    EXPECT_NE(r.out.find("StatGroup::counter"), std::string::npos) << r.out;
    EXPECT_NE(r.out.find(
                  "PathImpl::replay -> PathImpl::account -> PathImpl::tally"),
              std::string::npos)
        << r.out;
    EXPECT_EQ(countOf(r.out, "[R1]"), 1) << r.out;
    // The constructor's registration, the allow()ed lazy registration
    // and the unreachable report() stay quiet.
    EXPECT_EQ(r.out.find("src/bad_r1.cc:29"), std::string::npos) << r.out;
    EXPECT_EQ(r.out.find("PathImpl::lazy"), std::string::npos) << r.out;
    EXPECT_EQ(r.out.find("PathImpl::report"), std::string::npos) << r.out;
}

TEST(TexpimLint, CleanScanExitsZero)
{
    LintRun r = runLint("--repo-root " + fixture("d3") +
                        " --rules D3 src/clean_d3.cc");
    EXPECT_EQ(r.exitCode, 0) << r.out;
    EXPECT_NE(r.out.find("texpim-lint: 0 finding(s)"), std::string::npos) << r.out;
}

TEST(TexpimLint, UnknownFlagIsAUsageError)
{
    LintRun r = runLint("--no-such-flag");
    EXPECT_EQ(r.exitCode, 2) << r.out;
}

} // namespace
