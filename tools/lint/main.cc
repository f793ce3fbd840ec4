/**
 * @file
 * texpim-lint driver: walk the tree, run the rules, report.
 *
 *   texpim-lint [options] [scan-root ...]
 *     --repo-root DIR       repository root (default: .)
 *     --rules LIST          comma-separated rule ids (default: all)
 *     --key-table FILE      known-key table (default src/gpu/params.cc)
 *     --doc FILE            documentation file for C1 (repeatable;
 *                           default README.md DESIGN.md)
 *     --callgraph-dump      print the call-graph index and exit 0
 *
 * Scan roots default to src bench tests examples (relative to the repo
 * root); paths under tests/lint/fixtures are skipped. Exit status: 0
 * clean, 1 findings, 2 usage/configuration error. A finding is fixed or
 * justified in place with an allow() annotation; nothing is
 * grandfathered.
 */

#include "lint.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>

namespace fs = std::filesystem;
using namespace texpim_lint;

namespace {

bool
isSourceFile(const fs::path &p)
{
    std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".hh" || ext == ".cpp" || ext == ".h" ||
           ext == ".hpp";
}

std::string
normalize(std::string s)
{
    std::replace(s.begin(), s.end(), '\\', '/');
    return s;
}

int
usage()
{
    std::fprintf(stderr, "usage: texpim-lint [options] [scan-root ...] "
                         "(see tools/lint/main.cc)\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    opt.keyTablePath = "src/gpu/params.cc";
    opt.docPaths = {"README.md", "DESIGN.md"};
    bool docsOverridden = false;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "texpim-lint: %s needs a value\n",
                             flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--repo-root") {
            opt.repoRoot = value("--repo-root");
        } else if (a == "--key-table") {
            opt.keyTablePath = value("--key-table");
        } else if (a == "--doc") {
            if (!docsOverridden) {
                opt.docPaths.clear();
                docsOverridden = true;
            }
            opt.docPaths.push_back(value("--doc"));
        } else if (a == "--callgraph-dump") {
            opt.callgraphDump = true;
        } else if (a == "--rules") {
            std::string list = value("--rules");
            size_t start = 0;
            while (start <= list.size()) {
                size_t comma = list.find(',', start);
                std::string r = list.substr(
                    start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
                if (!r.empty())
                    opt.rules.insert(r);
                if (comma == std::string::npos)
                    break;
                start = comma + 1;
            }
        } else if (a.rfind("--", 0) == 0) {
            return usage();
        } else {
            opt.roots.push_back(a);
        }
    }
    if (opt.roots.empty())
        opt.roots = {"src", "bench", "tests", "examples"};

    // ---- collect files ----
    std::vector<std::string> relPaths;
    for (const std::string &root : opt.roots) {
        fs::path abs = fs::path(opt.repoRoot) / root;
        std::error_code ec;
        if (fs::is_regular_file(abs, ec)) {
            relPaths.push_back(normalize(root));
            continue;
        }
        if (!fs::is_directory(abs, ec))
            continue;
        for (auto it = fs::recursive_directory_iterator(abs, ec);
             it != fs::recursive_directory_iterator(); ++it) {
            if (!it->is_regular_file(ec) || !isSourceFile(it->path()))
                continue;
            std::string rel = normalize(
                fs::relative(it->path(), opt.repoRoot, ec).string());
            relPaths.push_back(rel);
        }
    }
    std::sort(relPaths.begin(), relPaths.end());
    relPaths.erase(std::unique(relPaths.begin(), relPaths.end()),
                   relPaths.end());

    std::vector<SourceFile> files;
    for (const std::string &rel : relPaths)
        if (rel.find("tests/lint/fixtures") == std::string::npos)
            files.push_back(loadSource(opt.repoRoot + "/" + rel, rel));
    if (files.empty()) {
        std::fprintf(stderr, "texpim-lint: nothing to scan under '%s'\n",
                     opt.repoRoot.c_str());
        return 2;
    }

    // ---- run rules ----
    if (opt.callgraphDump) {
        std::vector<Finding> none;
        runPhaseRules(files, opt, none);
        return 0;
    }
    std::vector<Finding> findings;
    runTextRules(files, opt, findings);
    if (ruleEnabled(opt, "C1"))
        runConfigRule(files, opt, findings);
    if (ruleEnabled(opt, "P1") || ruleEnabled(opt, "P2") ||
        ruleEnabled(opt, "T1") || ruleEnabled(opt, "E1") ||
        ruleEnabled(opt, "R1"))
        runPhaseRules(files, opt, findings);

    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.path != b.path)
                      return a.path < b.path;
                  if (a.line != b.line)
                      return a.line < b.line;
                  if (a.rule != b.rule)
                      return a.rule < b.rule;
                  return a.key < b.key;
              });

    // ---- report ----
    for (const Finding &f : findings)
        std::printf("%s:%d: [%s] %s\n", f.path.c_str(), f.line,
                    f.rule.c_str(), f.message.c_str());
    std::printf("texpim-lint: %zu finding(s), %zu file(s) scanned\n",
                findings.size(), files.size());
    return findings.empty() ? 0 : 1;
}
