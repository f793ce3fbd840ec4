/**
 * @file
 * texpim-lint rules D1-D4 and S1 (see lint.hh for the catalog).
 *
 * Everything here works on the comment/string-stripped views produced
 * by file_scan.cc, so matches inside comments or literals never fire.
 */

#include "lint.hh"

#include <algorithm>
#include <cctype>
#include <fstream>
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

// ---------------------------------------------------------------- S1

struct StatCall
{
    const SourceFile *file;
    int line;
    std::string kind; //!< counter / average / histogram
    std::string name;
    bool described;
};

/** Split a call's argument text on top-level commas. */
std::vector<std::string>
splitArgs(const std::string &args)
{
    std::vector<std::string> out;
    int depth = 0;
    std::string cur;
    for (char c : args) {
        if (c == '(' || c == '<' || c == '[' || c == '{')
            ++depth;
        else if (c == ')' || c == '>' || c == ']' || c == '}')
            --depth;
        if (c == ',' && depth == 0) {
            out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

void
collectStatCalls(const SourceFile &f, std::vector<StatCall> &calls)
{
    static const std::regex callRe(
        R"(\.\s*(counter|average|histogram)\s*\()");
    JoinedText j(f.codeStr);
    const std::string &t = j.text;
    for (auto it = std::sregex_iterator(t.begin(), t.end(), callRe);
         it != std::sregex_iterator(); ++it) {
        size_t open = size_t(it->position() + it->length()) - 1;
        // Match the argument list.
        int depth = 0;
        size_t p = open;
        while (p < t.size()) {
            if (t[p] == '(')
                ++depth;
            else if (t[p] == ')' && --depth == 0)
                break;
            ++p;
        }
        if (p >= t.size())
            continue;
        std::string argText = t.substr(open + 1, p - open - 1);
        std::vector<std::string> args = splitArgs(argText);
        if (args.empty())
            continue;
        // The name must be exactly one plain string literal. Dynamic
        // names (concatenation) and conditional lookups
        // (cond ? "a" : "b") cannot be registrations — the described
        // registration is always a plain literal — so skip them.
        std::string first = args[0];
        size_t b = first.find_first_not_of(" \t\n");
        size_t e = first.find_last_not_of(" \t\n");
        if (b == std::string::npos)
            continue;
        first = first.substr(b, e - b + 1);
        if (first.size() < 2 || first.front() != '"' ||
            first.back() != '"' ||
            std::count(first.begin(), first.end(), '"') != 2)
            continue;
        StatCall c;
        c.file = &f;
        c.line = j.lineAt(size_t(it->position()));
        c.kind = (*it)[1].str();
        c.name = first.substr(1, first.size() - 2);
        size_t needed = c.kind == "histogram" ? 5 : 2;
        c.described = args.size() >= needed &&
                      args.back().find("\"\"") == std::string::npos &&
                      args.back().find_first_not_of(" \t\n") !=
                          std::string::npos;
        calls.push_back(c);
    }
}

void
ruleS1(const std::vector<SourceFile> &files, const Options &opt,
       std::vector<Finding> &out)
{
    std::vector<StatCall> calls;
    for (const SourceFile &f : files)
        if (f.inSrc || f.inBench)
            collectStatCalls(f, calls);

    std::set<std::string> described;
    for (const StatCall &c : calls)
        if (c.described)
            described.insert(c.name);

    // One finding per (file, name): flag the first undescribed
    // registration of a stat that is never described anywhere (later
    // mentions are hot-path re-lookups of the same defect).
    std::set<std::pair<std::string, std::string>> seen;
    for (const StatCall &c : calls) {
        if (described.count(c.name))
            continue;
        if (!seen.insert({c.file->path, c.name}).second)
            continue;
        report(out, *c.file, c.line, "S1", c.name,
               "stat '" + c.name + "' (" + c.kind +
                   ") is registered without a description anywhere; the "
                   "StatGroup contract requires a non-empty description "
                   "at construction so `texpim stats` and the JSON "
                   "export stay self-documenting");
    }
    (void)opt;
}

// ---------------------------------------------------------------- S2

std::vector<std::string>
readFileLines(const std::string &path)
{
    std::vector<std::string> lines;
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return lines;
    std::string l;
    while (std::getline(in, l))
        lines.push_back(l);
    return lines;
}

std::string
trimWs(const std::string &s)
{
    size_t b = s.find_first_not_of(" \t\n\r");
    if (b == std::string::npos)
        return {};
    size_t e = s.find_last_not_of(" \t\n\r");
    return s.substr(b, e - b + 1);
}

/**
 * Parse the zone table between the `texpim-lint: zone-table begin/end`
 * markers: each `Z(kZoneX, "name", kParent, "description")` row
 * registers kZoneX; rows with an empty or missing description are
 * flagged. Returns the registered constants (empty when the table file
 * is absent, e.g. a single-rule fixture run).
 */
std::set<std::string>
parseZoneTable(const Options &opt, std::vector<Finding> &out,
               bool &haveTable)
{
    std::set<std::string> zones;
    haveTable = false;
    std::vector<std::string> lines =
        readFileLines(opt.repoRoot + "/" + opt.zoneTablePath);
    if (lines.empty())
        return zones;

    // Join the marker region, keeping an offset -> line map.
    bool inTable = false;
    std::vector<std::string> region(lines.size());
    for (size_t i = 0; i < lines.size(); ++i) {
        if (lines[i].find("texpim-lint: zone-table begin") !=
            std::string::npos) {
            inTable = true;
            haveTable = true;
            continue;
        }
        if (lines[i].find("texpim-lint: zone-table end") !=
            std::string::npos)
            inTable = false;
        if (inTable) {
            region[i] = lines[i];
            // The table is a macro: blank the line-continuation
            // backslashes so they never leak into parsed arguments.
            std::replace(region[i].begin(), region[i].end(), '\\', ' ');
        }
    }
    if (!haveTable)
        return zones;

    JoinedText j(region);
    const std::string &t = j.text;
    static const std::regex rowRe(R"(\bZ\s*\(\s*(kZone\w+))");
    for (auto it = std::sregex_iterator(t.begin(), t.end(), rowRe);
         it != std::sregex_iterator(); ++it) {
        std::string zone = (*it)[1].str();
        int line = j.lineAt(size_t(it->position()));
        zones.insert(zone);

        // Bracket-match the row's argument list, then check the
        // description argument is a non-empty string literal.
        size_t open = t.find('(', size_t(it->position()));
        int depth = 0;
        size_t p = open;
        while (p < t.size()) {
            if (t[p] == '(')
                ++depth;
            else if (t[p] == ')' && --depth == 0)
                break;
            ++p;
        }
        std::vector<std::string> args =
            splitArgs(t.substr(open + 1, p - open - 1));
        bool described = false;
        if (args.size() >= 4) {
            std::string desc = trimWs(args[3]);
            described = desc.size() > 2 && desc.front() == '"' &&
                        desc.find_first_not_of('"') != std::string::npos;
        }
        if (!described) {
            Finding fd;
            fd.rule = "S2";
            fd.path = opt.zoneTablePath;
            fd.line = line;
            fd.key = zone;
            fd.message =
                "zone '" + zone +
                "' is registered without a description; every zone-table "
                "row must say what the zone measures so the profile "
                "export and `texpim report` stay self-documenting";
            out.push_back(fd);
        }
    }
    return zones;
}

void
ruleS2Uses(const SourceFile &f, const std::set<std::string> &zones,
           const Options &opt, std::vector<Finding> &out)
{
    if (f.path == opt.zoneTablePath)
        return; // the table itself
    static const std::regex useRe(
        R"(\bTEXPIM_PROF_(CYCLES|COUNT)\s*\()");
    JoinedText j(f.codeStr);
    const std::string &t = j.text;
    for (auto it = std::sregex_iterator(t.begin(), t.end(), useRe);
         it != std::sregex_iterator(); ++it) {
        int line = j.lineAt(size_t(it->position()));
        // Skip the macro definitions themselves (preprocessor lines).
        std::string firstLine = trimWs(f.code[size_t(line) - 1]);
        if (!firstLine.empty() && firstLine[0] == '#')
            continue;

        size_t open = size_t(it->position() + it->length()) - 1;
        int depth = 0;
        size_t p = open;
        while (p < t.size()) {
            if (t[p] == '(')
                ++depth;
            else if (t[p] == ')' && --depth == 0)
                break;
            ++p;
        }
        if (p >= t.size())
            continue;
        std::vector<std::string> args =
            splitArgs(t.substr(open + 1, p - open - 1));
        std::string arg = args.empty() ? std::string() : trimWs(args[0]);
        // The last ::-component must be a registered constant; any
        // namespace qualification (prof::, ::texpim::prof::) is fine.
        std::string leaf = arg;
        size_t colon = leaf.rfind("::");
        if (colon != std::string::npos)
            leaf = leaf.substr(colon + 2);
        bool qualifierOk =
            arg.find_first_not_of("abcdefghijklmnopqrstuvwxyz"
                                  "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                                  "0123456789_:") == std::string::npos;
        if (qualifierOk && zones.count(leaf))
            continue;
        report(out, f, line, "S2", arg.empty() ? "<empty>" : arg,
               "profile zone '" + (arg.empty() ? "<empty>" : arg) +
                   "' is not a registered zone constant; add a described "
                   "row to the zone table in " + opt.zoneTablePath +
                   " and charge prof::kZone* instead of an ad-hoc name");
    }
}

} // namespace

void
runZoneRule(const std::vector<SourceFile> &files, const Options &opt,
            std::vector<Finding> &out)
{
    bool haveTable = false;
    std::set<std::string> zones = parseZoneTable(opt, out, haveTable);
    if (!haveTable)
        return; // no zone table (e.g. fixture run for another rule)
    for (const SourceFile &f : files)
        ruleS2Uses(f, zones, opt, out);
}

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
    if (ruleEnabled(opt, "S1"))
        ruleS1(files, opt, out);
}

} // namespace texpim_lint
