/**
 * @file
 * File loading and lexical pre-processing for texpim-lint: a small
 * character-level state machine that blanks comments and literals
 * while preserving layout, plus `texpim-lint: allow(...)` annotation
 * parsing out of the comment text.
 */

#include "lint.hh"

#include <cctype>
#include <fstream>
#include <sstream>

namespace texpim_lint {

namespace {

bool
pathContains(const std::string &path, const std::string &dir)
{
    // "src/x.cc" or ".../src/x.cc"
    if (path.rfind(dir + "/", 0) == 0)
        return true;
    return path.find("/" + dir + "/") != std::string::npos;
}

std::string
trim(const std::string &s)
{
    size_t b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos)
        return "";
    size_t e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
}

/** Parse one comment's text for a `texpim-lint: allow(R1[,R2]) reason`
 *  annotation; record it (and an A0 finding when the justification is
 *  missing) against `line`. */
void
parseAnnotation(SourceFile &f, int line, const std::string &comment)
{
    const std::string tag = "texpim-lint:";
    size_t at = comment.find(tag);
    if (at == std::string::npos)
        return;
    std::string rest = trim(comment.substr(at + tag.size()));

    // Call-graph markers: `phase-root`, `replay-root`, `pool-shared`,
    // `caller-owned`, each followed by a written justification (A0
    // applies).
    struct Marker {
        const char *word;
        std::map<int, std::string> SourceFile::*field;
    };
    static const Marker kMarkers[] = {
        {"phase-root", &SourceFile::phaseRoot},
        {"replay-root", &SourceFile::replayRoot},
        {"pool-shared", &SourceFile::poolShared},
        {"caller-owned", &SourceFile::callerOwned},
    };
    for (const Marker &m : kMarkers) {
        std::string word = m.word;
        if (rest.rfind(word, 0) != 0)
            continue;
        std::string reason = trim(rest.substr(word.size()));
        (f.*(m.field))[line] = reason;
        if (reason.size() < 8) {
            Finding a0;
            a0.rule = "A0";
            a0.path = f.path;
            a0.line = line;
            a0.key = word;
            a0.message = word + " annotation needs a written justification";
            f.annotationFindings.push_back(a0);
        }
        return;
    }

    const std::string allow = "allow(";
    if (rest.rfind(allow, 0) != 0)
        return; // config-key-table markers etc. live elsewhere
    size_t close = rest.find(')');
    if (close == std::string::npos)
        return;
    std::string rules = rest.substr(allow.size(), close - allow.size());
    std::string reason = trim(rest.substr(close + 1));

    std::istringstream is(rules);
    std::string rule;
    bool any = false;
    while (std::getline(is, rule, ',')) {
        rule = trim(rule);
        if (rule.empty())
            continue;
        f.allow[line].insert(rule);
        any = true;
    }
    if (any && reason.size() < 8) {
        Finding a0;
        a0.rule = "A0";
        a0.path = f.path;
        a0.line = line;
        a0.key = "allow(" + trim(rules) + ")";
        a0.message = "allow(" + trim(rules) +
                     ") annotation needs a written justification";
        f.annotationFindings.push_back(a0);
    }
}

/** Blank the interior of `#if 0` / `#if false` blocks (spaces, layout
 *  preserved) before the comment/string state machine runs: dead code
 *  often holds unbalanced quotes and rule-matching text that must not
 *  leak into the scanned views. Nested conditionals inside the dead
 *  region are tracked; an `#else`/`#elif` at the dead `#if`'s own
 *  level re-enables scanning (that branch compiles). */
std::string
stripIfZeroBlocks(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    int deadDepth = -1; // nesting depth of conditionals inside the dead
                        // region; -1 = live
    size_t i = 0;
    while (i <= text.size()) {
        size_t eol = text.find('\n', i);
        size_t end = eol == std::string::npos ? text.size() : eol;
        std::string lineText = text.substr(i, end - i);
        std::string t = trim(lineText);
        bool directive = !t.empty() && t[0] == '#';
        std::string d = directive ? trim(t.substr(1)) : "";
        auto isWord = [&](const char *w) {
            std::string word = w;
            return d.rfind(word, 0) == 0 &&
                   (d.size() == word.size() ||
                    !(std::isalnum((unsigned char)d[word.size()]) ||
                      d[word.size()] == '_'));
        };
        bool blankThis = false;
        if (deadDepth < 0) {
            if (directive && isWord("if")) {
                std::string cond = trim(d.substr(2));
                if (cond == "0" || cond == "false" || cond == "(0)" ||
                    cond == "(false)")
                    deadDepth = 0;
            }
        } else {
            blankThis = true; // dead region: blank everything but keep
                              // the nesting bookkeeping below
            if (directive) {
                if (isWord("if") || isWord("ifdef") || isWord("ifndef")) {
                    ++deadDepth;
                } else if (isWord("endif")) {
                    if (deadDepth == 0)
                        deadDepth = -1;
                    else
                        --deadDepth;
                } else if (isWord("else") || isWord("elif")) {
                    if (deadDepth == 0)
                        deadDepth = -1;
                }
            }
        }
        if (blankThis)
            out.append(lineText.size(), ' ');
        else
            out += lineText;
        if (eol == std::string::npos)
            break;
        out += '\n';
        i = end + 1;
    }
    return out;
}

/** Is the identifier run ending `code` a raw-string prefix (R, u8R,
 *  uR, UR, LR)? Rejects e.g. `FOUR"..."` where R merely ends another
 *  identifier. */
bool
isRawStringPrefix(const std::string &code)
{
    size_t e = code.size();
    size_t b = e;
    while (b > 0 && (std::isalnum((unsigned char)code[b - 1]) ||
                     code[b - 1] == '_'))
        --b;
    std::string id = code.substr(b, e - b);
    return id == "R" || id == "u8R" || id == "uR" || id == "UR" ||
           id == "LR";
}

} // namespace

bool
isAllowed(const SourceFile &f, int line, const std::string &rule)
{
    // An annotation covers its own line and up to three following
    // lines, so it can sit above a statement that wraps.
    for (int l = line; l >= line - 3; --l) {
        auto it = f.allow.find(l);
        if (it != f.allow.end() && it->second.count(rule))
            return true;
    }
    return false;
}

bool
ruleEnabled(const Options &opt, const std::string &rule)
{
    return opt.rules.empty() || opt.rules.count(rule) != 0;
}

SourceFile
loadSource(const std::string &absPath, const std::string &relPath)
{
    SourceFile f;
    f.path = relPath;
    f.inSrc = pathContains(relPath, "src");
    f.inBench = pathContains(relPath, "bench");
    f.inTests = pathContains(relPath, "tests");

    std::ifstream in(absPath, std::ios::binary);
    if (!in)
        return f;
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string rawText = ss.str();
    const std::string text = stripIfZeroBlocks(rawText);

    // Character state machine. `code` blanks comments AND literals;
    // `codeStr` blanks only comments.
    enum class St { Code, Line, Block, Str, Chr, Raw };
    St st = St::Code;
    std::string code, codeStr, comment, rawDelim;
    int line = 1, commentLine = 1;
    code.reserve(text.size());
    codeStr.reserve(text.size());

    auto emit = [&](char c, bool inCode, bool inStr) {
        if (c == '\n') {
            code += '\n';
            codeStr += '\n';
            return;
        }
        code += inCode ? c : ' ';
        codeStr += (inCode || inStr) ? c : ' ';
    };

    for (size_t i = 0; i < text.size(); ++i) {
        char c = text[i];
        char n = i + 1 < text.size() ? text[i + 1] : '\0';
        switch (st) {
          case St::Code:
            if (c == '/' && n == '/') {
                st = St::Line;
                comment.clear();
                commentLine = line;
                emit(c, false, false);
            } else if (c == '/' && n == '*') {
                st = St::Block;
                comment.clear();
                commentLine = line;
                emit(c, false, false);
            } else if (c == '"') {
                // Raw string literal? Look back for an R / u8R / uR /
                // UR / LR prefix (a mere trailing R of a longer
                // identifier does not count).
                bool raw = isRawStringPrefix(code);
                if (raw) {
                    st = St::Raw;
                    rawDelim.clear();
                    size_t j = i + 1;
                    while (j < text.size() && text[j] != '(')
                        rawDelim += text[j++];
                } else {
                    st = St::Str;
                }
                emit(c, false, true);
            } else if (c == '\'') {
                // Skip digit separators (1'000'000).
                bool sep = !code.empty() &&
                           (std::isalnum((unsigned char)code.back()) != 0) &&
                           code.back() != 'u' && code.back() != 'U' &&
                           std::isdigit((unsigned char)n) != 0;
                if (!sep)
                    st = St::Chr;
                emit(c, sep, true);
            } else {
                emit(c, true, true);
            }
            break;
          case St::Line:
            if (c == '\\' && (n == '\n' || (n == '\r' && i + 2 < text.size() &&
                                            text[i + 2] == '\n'))) {
                // Backslash-newline splices the next physical line into
                // this // comment: the comment continues.
                emit(c, false, false);
                size_t skip = n == '\n' ? 1 : 2;
                emit('\n', true, true);
                ++line;
                i += skip;
                comment += ' ';
            } else if (c == '\n') {
                parseAnnotation(f, commentLine, comment);
                st = St::Code;
                emit(c, true, true);
            } else {
                comment += c;
                emit(c, false, false);
            }
            break;
          case St::Block:
            if (c == '*' && n == '/') {
                parseAnnotation(f, commentLine, comment);
                st = St::Code;
                emit(c, false, false);
                emit(n, false, false);
                ++i;
            } else {
                comment += c;
                emit(c, false, false);
            }
            break;
          case St::Str:
            if (c == '\\' && n != '\0') {
                emit(c, false, true);
                if (n != '\n')
                    emit(n, false, true);
                else {
                    emit('\n', false, true);
                    ++line;
                }
                ++i;
            } else {
                if (c == '"')
                    st = St::Code;
                emit(c, c == '"', true);
            }
            break;
          case St::Chr:
            if (c == '\\' && n != '\0') {
                emit(c, false, true);
                emit(n, false, true);
                ++i;
            } else {
                if (c == '\'')
                    st = St::Code;
                emit(c, c == '\'', true);
            }
            break;
          case St::Raw: {
            std::string closer = ")" + rawDelim + "\"";
            if (text.compare(i, closer.size(), closer) == 0) {
                for (size_t k = 0; k < closer.size(); ++k)
                    emit(text[i + k], k + 1 == closer.size(), true);
                i += closer.size() - 1;
                st = St::Code;
            } else {
                emit(c, false, true);
            }
            break;
          }
        }
        if (c == '\n' && st != St::Str)
            ++line;
    }
    if (st == St::Line)
        parseAnnotation(f, commentLine, comment);

    auto split = [](const std::string &s, std::vector<std::string> &out) {
        size_t start = 0;
        for (size_t p = 0; p <= s.size(); ++p) {
            if (p == s.size() || s[p] == '\n') {
                out.push_back(s.substr(start, p - start));
                start = p + 1;
            }
        }
    };
    split(rawText, f.raw);
    split(code, f.code);
    split(codeStr, f.codeStr);
    return f;
}

} // namespace texpim_lint
