/**
 * @file
 * texpim-lint rules D1-D4 and A0 (see lint.hh for the catalog).
 *
 * Everything here works on the comment/string-stripped views produced
 * by file_scan.cc, so matches inside comments or literals never fire.
 */

#include "lint.hh"

#include <algorithm>
#include <cctype>
#include <regex>

namespace texpim_lint {

namespace {

/** Join a line vector into one text blob plus an offset -> line map. */
struct JoinedText
{
    std::string text;
    std::vector<size_t> lineStart; //!< offset of each line (0-based idx)

    explicit JoinedText(const std::vector<std::string> &lines)
    {
        for (const std::string &l : lines) {
            lineStart.push_back(text.size());
            text += l;
            text += '\n';
        }
    }

    int
    lineAt(size_t off) const
    {
        auto it = std::upper_bound(lineStart.begin(), lineStart.end(), off);
        return int(it - lineStart.begin()); // 1-based
    }
};

void
report(std::vector<Finding> &out, const SourceFile &f, int line,
       const std::string &rule, const std::string &key,
       const std::string &message)
{
    if (isAllowed(f, line, rule))
        return;
    Finding fd;
    fd.rule = rule;
    fd.path = f.path;
    fd.line = line;
    fd.key = key;
    fd.message = message;
    out.push_back(fd);
}

// ---------------------------------------------------------------- D1

struct NondetPattern
{
    std::regex re;
    const char *what;
};

const std::vector<NondetPattern> &
nondetPatterns()
{
    static const std::vector<NondetPattern> pats = [] {
        std::vector<NondetPattern> v;
        auto add = [&v](const char *re, const char *what) {
            v.push_back({std::regex(re), what});
        };
        add(R"((^|[^\w])s?rand\s*\()", "rand()/srand()");
        add(R"(\brandom_device\b)", "std::random_device");
        add(R"(\bsystem_clock\b)", "std::chrono::system_clock");
        add(R"(\bsteady_clock\b)", "std::chrono::steady_clock");
        add(R"(\bhigh_resolution_clock\b)",
            "std::chrono::high_resolution_clock");
        add(R"((^|[^\w])gettimeofday\s*\()", "gettimeofday()");
        add(R"((^|[^\w:.])time\s*\(\s*(NULL|nullptr|0|&\w+)\s*\))",
            "time()");
        add(R"(std::time\s*\()", "std::time()");
        add(R"((^|[^\w])getenv\s*\()", "getenv()");
        return v;
    }();
    return pats;
}

void
ruleD1(const SourceFile &f, std::vector<Finding> &out)
{
    if (!f.inSrc)
        return;
    for (size_t i = 0; i < f.code.size(); ++i) {
        for (const NondetPattern &p : nondetPatterns()) {
            if (!std::regex_search(f.code[i], p.re))
                continue;
            report(out, f, int(i) + 1, "D1", p.what,
                   std::string("nondeterminism source ") + p.what +
                       " in simulator code; route randomness through the "
                       "seeded common/rng.hh and settings through the "
                       "Config surface");
        }
    }
}

// ---------------------------------------------------------------- D2

/** Collect identifiers declared as std::unordered_{map,set} anywhere
 *  in the scanned set (declarations and uses often sit in different
 *  files, e.g. a member declared in a .hh iterated from the .cc). */
std::set<std::string>
collectUnorderedNames(const std::vector<SourceFile> &files)
{
    std::set<std::string> names;
    for (const SourceFile &f : files) {
        JoinedText j(f.code);
        const std::string &t = j.text;
        for (const char *kw : {"unordered_map", "unordered_set"}) {
            size_t at = 0;
            while ((at = t.find(kw, at)) != std::string::npos) {
                size_t p = at + std::string(kw).size();
                at = p;
                // Template argument list with bracket matching.
                while (p < t.size() && std::isspace((unsigned char)t[p]))
                    ++p;
                if (p >= t.size() || t[p] != '<')
                    continue;
                int depth = 0;
                while (p < t.size()) {
                    if (t[p] == '<')
                        ++depth;
                    else if (t[p] == '>' && --depth == 0) {
                        ++p;
                        break;
                    }
                    ++p;
                }
                // Optional &/* and whitespace, then the declarator.
                while (p < t.size() &&
                       (std::isspace((unsigned char)t[p]) || t[p] == '&' ||
                        t[p] == '*'))
                    ++p;
                size_t id0 = p;
                while (p < t.size() && (std::isalnum((unsigned char)t[p]) ||
                                        t[p] == '_'))
                    ++p;
                if (p == id0)
                    continue;
                std::string name = t.substr(id0, p - id0);
                while (p < t.size() && std::isspace((unsigned char)t[p]))
                    ++p;
                // Variable declarators only: `name;`, `name = ...`,
                // `name{...}`, `name)` / `name,` (parameters).
                if (p < t.size() && (t[p] == ';' || t[p] == '=' ||
                                     t[p] == '{' || t[p] == ')' ||
                                     t[p] == ','))
                    names.insert(name);
            }
        }
    }
    return names;
}

void
ruleD2(const SourceFile &f, const std::set<std::string> &unordered,
       std::vector<Finding> &out)
{
    if (!f.inSrc && !f.inBench)
        return;
    JoinedText j(f.code);
    for (const std::string &name : unordered) {
        // Range-for over the container.
        std::regex rangeFor("for\\s*\\([^)]*:[^)]*\\b" + name + "\\b");
        // Explicit iterator loop.
        std::regex beginCall("\\b" + name + "\\s*\\.\\s*c?begin\\s*\\(");
        for (const auto &re : {rangeFor, beginCall}) {
            auto begin = std::sregex_iterator(j.text.begin(), j.text.end(),
                                              re);
            for (auto it = begin; it != std::sregex_iterator(); ++it) {
                int line = j.lineAt(size_t(it->position()));
                report(out, f, line, "D2", name,
                       "iteration over unordered container '" + name +
                           "': visit order is stdlib/seed-dependent and "
                           "breaks bit-identical stats, exports and "
                           "replay; iterate a sorted copy or annotate "
                           "allow(D2) with the invariant that makes "
                           "order irrelevant");
            }
        }
    }
}

// ---------------------------------------------------------------- D3

void
ruleD3(const SourceFile &f, std::vector<Finding> &out)
{
    if (!f.inSrc && !f.inBench)
        return;
    static const std::regex sortRe(R"(std::sort\s*\()");
    for (size_t i = 0; i < f.code.size(); ++i) {
        if (!std::regex_search(f.code[i], sortRe))
            continue;
        // A nearby comment must argue the order is total.
        bool justified = false;
        for (int back = 0; back <= 3 && int(i) - back >= 0; ++back) {
            const std::string &rawLine = f.raw[i - size_t(back)];
            std::string low;
            low.reserve(rawLine.size());
            for (char c : rawLine)
                low += char(std::tolower((unsigned char)c));
            if (low.find("tie-break") != std::string::npos ||
                low.find("total order") != std::string::npos) {
                justified = true;
                break;
            }
        }
        if (justified)
            continue;
        report(out, f, int(i) + 1, "D3", "std::sort",
               "std::sort without a total-order argument: equal-key "
               "order is unspecified and stdlib-dependent; use "
               "std::stable_sort with an explicit tie-break key, or "
               "document why the key is already total in a nearby "
               "'tie-break:' comment");
    }
}

// ---------------------------------------------------------------- D4

void
ruleD4(const SourceFile &f, std::vector<Finding> &out)
{
    if (!f.inSrc)
        return;
    static const std::regex staticRe(R"(^\s*(inline\s+)?static\s)");
    for (size_t i = 0; i < f.code.size(); ++i) {
        if (!std::regex_search(f.code[i], staticRe))
            continue;
        // Join the declaration until its first structural terminator.
        std::string decl;
        for (size_t k = i; k < f.code.size() && k < i + 4; ++k) {
            decl += f.code[k];
            decl += ' ';
            if (decl.find_first_of(";={(") != std::string::npos)
                break;
        }
        if (decl.find("static_assert") != std::string::npos ||
            decl.find("static_cast") != std::string::npos)
            continue;
        // Immutable or thread-confined state is fine.
        static const std::regex exemptRe(
            R"(\b(constexpr|thread_local|const)\b)");
        if (std::regex_search(decl, exemptRe))
            continue;
        // Function declarations/definitions: '(' arrives before any
        // '=', ';' or '{' terminator.
        size_t paren = decl.find('(');
        size_t term = decl.find_first_of(";={");
        if (paren != std::string::npos &&
            (term == std::string::npos || paren < term))
            continue;
        if (term == std::string::npos)
            continue; // not a declaration we can classify
        report(out, f, int(i) + 1, "D4", "static",
               "mutable static state in simulator code: shared across "
               "concurrent simulations (racy, order-dependent); make it "
               "thread_local, const/constexpr, or SimContext/registry-"
               "owned and annotate allow(D4) with the ownership "
               "argument");
    }
}

} // namespace

void
runTextRules(const std::vector<SourceFile> &files, const Options &opt,
             std::vector<Finding> &out)
{
    std::set<std::string> unordered;
    if (ruleEnabled(opt, "D2"))
        unordered = collectUnorderedNames(files);

    for (const SourceFile &f : files) {
        if (ruleEnabled(opt, "D1"))
            ruleD1(f, out);
        if (ruleEnabled(opt, "D2"))
            ruleD2(f, unordered, out);
        if (ruleEnabled(opt, "D3"))
            ruleD3(f, out);
        if (ruleEnabled(opt, "D4"))
            ruleD4(f, out);
        if (ruleEnabled(opt, "A0"))
            for (const Finding &a0 : f.annotationFindings)
                out.push_back(a0);
    }
}

} // namespace texpim_lint
