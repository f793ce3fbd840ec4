/**
 * @file
 * Rule C1: three-way config-key reconciliation.
 *
 *  - every key a source file queries (cfg.getU64("..."), getBool,
 *    getDouble, getString, getUnsigned, has, rawGet) from src/ must
 *    appear in the known-key table in src/gpu/params.cc (between the
 *    `texpim-lint: config-key-table begin/end` markers);
 *  - every table key must be referenced somewhere in the scanned tree
 *    (otherwise it is a dead knob);
 *  - every table key must be documented (appear as `key` in one of the
 *    doc files);
 *  - every row of the README configuration-reference table (between
 *    `texpim-lint: config-key-docs begin/end` markers) must name a
 *    known key;
 *  - every key a command-key table (a `{"key", readers}` map between
 *    `texpim-lint: command-key-table begin/end` markers in a scanned
 *    file, such as the CLI's commandOnlyKeys()) names must be a known
 *    key, so a retired key cannot linger there.
 */

#include "lint.hh"

#include <algorithm>
#include <fstream>
#include <regex>

namespace texpim_lint {

namespace {

struct Located
{
    std::string path;
    int line = 0;
};

std::vector<std::string>
readLines(const std::string &path)
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

void
add(std::vector<Finding> &out, const std::string &path, int line,
    const std::string &key, const std::string &message)
{
    Finding f;
    f.rule = "C1";
    f.path = path;
    f.line = line;
    f.key = key;
    f.message = message;
    out.push_back(f);
}

} // namespace

void
runConfigRule(const std::vector<SourceFile> &files, const Options &opt,
              std::vector<Finding> &out)
{
    // --- the known-key table ---
    std::string tableAbs = opt.repoRoot + "/" + opt.keyTablePath;
    std::vector<std::string> tableLines = readLines(tableAbs);
    if (tableLines.empty())
        return; // no table (e.g. single-rule fixture run): C1 is moot

    std::map<std::string, Located> table;
    bool inTable = false;
    bool sawMarkers = false;
    static const std::regex lit(R"re("([^"]+)")re");
    for (size_t i = 0; i < tableLines.size(); ++i) {
        const std::string &l = tableLines[i];
        if (l.find("texpim-lint: config-key-table begin") !=
            std::string::npos) {
            inTable = true;
            sawMarkers = true;
            continue;
        }
        if (l.find("texpim-lint: config-key-table end") !=
            std::string::npos) {
            inTable = false;
            continue;
        }
        if (!inTable)
            continue;
        for (auto it = std::sregex_iterator(l.begin(), l.end(), lit);
             it != std::sregex_iterator(); ++it) {
            std::string key = (*it)[1].str();
            if (!table.count(key))
                table[key] = {opt.keyTablePath, int(i) + 1};
        }
    }
    if (!sawMarkers) {
        add(out, opt.keyTablePath, 1, "config-key-table",
            "known-key table markers ('texpim-lint: config-key-table "
            "begin/end') not found; rule C1 cannot reconcile keys");
        return;
    }

    // --- references in the scanned tree ---
    // Scanned over joined text (\s spans newlines) so a call whose key
    // literal wrapped to the next line still counts as a reference.
    static const std::regex refRe(
        R"re(\.\s*(getU64|getDouble|getBool|getString|getUnsigned|)re"
        R"re(rawGet|has)\s*\(\s*"([^"]+)")re");
    std::map<std::string, Located> refAnywhere; // first reference
    std::map<std::string, Located> refInSrc;    // first src/ reference
    for (const SourceFile &f : files) {
        std::string joined;
        for (const std::string &l : f.codeStr) {
            joined += l;
            joined += '\n';
        }
        for (auto it = std::sregex_iterator(joined.begin(), joined.end(),
                                            refRe);
             it != std::sregex_iterator(); ++it) {
            std::string key = (*it)[2].str();
            int line = 1 + int(std::count(joined.begin(),
                                          joined.begin() + it->position(0),
                                          '\n'));
            if (!refAnywhere.count(key))
                refAnywhere[key] = {f.path, line};
            if (f.inSrc && !refInSrc.count(key))
                refInSrc[key] = {f.path, line};
        }
    }

    // --- command-key tables ---
    // An entry's first literal is its key; the reader list that follows
    // is a `{...}` or a named vector, never another literal.
    static const std::regex cmdKeyRe(
        R"re(\{\s*"([^"]+)"\s*,\s*[{A-Za-z_])re");
    std::map<std::string, Located> commandKeys;
    for (const SourceFile &f : files) {
        bool inCmd = false;
        for (size_t i = 0; i < f.raw.size(); ++i) {
            if (f.raw[i].find("texpim-lint: command-key-table begin") !=
                std::string::npos) {
                inCmd = true;
                continue;
            }
            if (f.raw[i].find("texpim-lint: command-key-table end") !=
                std::string::npos) {
                inCmd = false;
                continue;
            }
            if (!inCmd)
                continue;
            const std::string &l = f.codeStr[i];
            for (auto it = std::sregex_iterator(l.begin(), l.end(),
                                                cmdKeyRe);
                 it != std::sregex_iterator(); ++it) {
                std::string key = (*it)[1].str();
                if (!commandKeys.count(key))
                    commandKeys[key] = {f.path, int(i) + 1};
            }
        }
    }

    // --- documentation ---
    // Namespaces the table establishes (`gpu` for `gpu.width`): a
    // backticked dotted mention in prose whose first segment is one of
    // these claims to name a config key, so it must exist.
    std::set<std::string> namespaces;
    for (const auto &kv : table) {
        size_t dot = kv.first.find('.');
        if (dot != std::string::npos)
            namespaces.insert(kv.first.substr(0, dot));
    }

    // Stat names share the namespace vocabulary (`hmc.crc_errors` is a
    // counter, not a knob): a mention whose leaf is a registered stat
    // name is a stat path, so the mention check skips it.
    std::set<std::string> statLeafs;
    static const std::regex statRe(
        R"re(\.\s*(counter|average|histogram)\s*\(\s*"([^"]+)")re");
    for (const SourceFile &f : files) {
        std::string joined;
        for (const std::string &l : f.codeStr) {
            joined += l;
            joined += '\n';
        }
        for (auto it = std::sregex_iterator(joined.begin(), joined.end(),
                                            statRe);
             it != std::sregex_iterator(); ++it)
            statLeafs.insert((*it)[2].str());
    }

    std::set<std::string> documented;  // `key` appears in any doc file
    std::map<std::string, Located> docTable; // explicit reference table
    std::map<std::string, Located> docMention; // prose `ns.key` mentions
    static const std::regex docRowRe(R"(^\s*\|\s*`([^`]+)`)");
    static const std::regex mentionRe(
        R"re(`([A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z0-9_]+)+)`)re");
    for (const std::string &doc : opt.docPaths) {
        std::vector<std::string> lines =
            readLines(opt.repoRoot + "/" + doc);
        bool inDocs = false;
        for (size_t i = 0; i < lines.size(); ++i) {
            const std::string &l = lines[i];
            if (l.find("texpim-lint: config-key-docs begin") !=
                std::string::npos) {
                inDocs = true;
                continue;
            }
            if (l.find("texpim-lint: config-key-docs end") !=
                std::string::npos) {
                inDocs = false;
                continue;
            }
            for (const auto &kv : table) {
                if (l.find("`" + kv.first + "`") != std::string::npos)
                    documented.insert(kv.first);
            }
            std::smatch m;
            if (inDocs && std::regex_search(l, m, docRowRe)) {
                std::string key = m[1].str();
                if (!docTable.count(key))
                    docTable[key] = {doc, int(i) + 1};
            }
            for (auto it = std::sregex_iterator(l.begin(), l.end(),
                                                mentionRe);
                 it != std::sregex_iterator(); ++it) {
                std::string key = (*it)[1].str();
                std::string leaf = key.substr(key.rfind('.') + 1);
                if (namespaces.count(key.substr(0, key.find('.'))) &&
                    !statLeafs.count(leaf) && !docMention.count(key))
                    docMention[key] = {doc, int(i) + 1};
            }
        }
    }

    // --- reconcile ---
    for (const auto &kv : refInSrc) {
        if (!table.count(kv.first))
            add(out, kv.second.path, kv.second.line, kv.first,
                "config key '" + kv.first +
                    "' is read here but missing from the known-key table "
                    "in " + opt.keyTablePath +
                    " (the CLI would reject it as unknown)");
    }
    for (const auto &kv : table) {
        if (!refAnywhere.count(kv.first))
            add(out, kv.second.path, kv.second.line, kv.first,
                "config key '" + kv.first +
                    "' is in the known-key table but never read by any "
                    "scanned source file (dead knob?)");
        if (!documented.count(kv.first))
            add(out, kv.second.path, kv.second.line, kv.first,
                "config key '" + kv.first +
                    "' is in the known-key table but not documented "
                    "(no `" + kv.first + "` in the doc files)");
    }
    for (const auto &kv : commandKeys) {
        if (!table.count(kv.first))
            add(out, kv.second.path, kv.second.line, kv.first,
                "command-key table names config key '" + kv.first +
                    "', which is not in the known-key table in " +
                    opt.keyTablePath + " (retired or misspelled key?)");
    }
    for (const auto &kv : docTable) {
        if (!table.count(kv.first))
            add(out, kv.second.path, kv.second.line, kv.first,
                "documented config key '" + kv.first +
                    "' does not exist in the known-key table (stale "
                    "documentation?)");
    }
    for (const auto &kv : docMention) {
        if (!table.count(kv.first) && !docTable.count(kv.first))
            add(out, kv.second.path, kv.second.line, kv.first,
                "doc mentions config key '" + kv.first +
                    "' in a known namespace but no such key exists "
                    "(stale prose?)");
    }
}

} // namespace texpim_lint
