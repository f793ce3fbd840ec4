/**
 * @file
 * Call-graph indexer implementation (see callgraph.hh for the
 * semantics contract). One recursive-descent pass per file over the
 * comment/string-blanked token stream; no preprocessing beyond the
 * shared scanner. Anything the parser cannot classify it skips
 * without error — the resolver's conservative fallbacks absorb the
 * resulting unknowns.
 */

#include "callgraph.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <deque>

namespace texpim_lint {

namespace {

const std::set<std::string> &
keywords()
{
    static const std::set<std::string> kw = {
        "if", "else", "for", "while", "do", "switch", "case", "default",
        "return", "break", "continue", "goto", "sizeof", "new", "delete",
        "throw", "try", "catch", "const", "constexpr", "consteval",
        "static", "thread_local", "mutable", "inline", "virtual",
        "override", "final", "noexcept", "public", "private", "protected",
        "class", "struct", "enum", "union", "namespace", "using",
        "typedef", "template", "typename", "auto", "volatile", "extern",
        "operator", "this", "true", "false", "nullptr", "static_assert",
        "friend", "explicit", "alignas", "alignof", "decltype",
        "co_await", "co_return", "co_yield", "static_cast",
        "dynamic_cast", "const_cast", "reinterpret_cast", "and", "or",
        "not",
    };
    return kw;
}

bool
isIdentStart(char c)
{
    return std::isalpha((unsigned char)c) || c == '_';
}

bool
isIdentChar(char c)
{
    return std::isalnum((unsigned char)c) || c == '_';
}

/** Tokenize one file's blanked `code` view. Preprocessor lines
 *  (including their backslash continuations) are skipped wholesale —
 *  macro definitions are not function definitions. */
std::vector<Tok>
tokenize(const SourceFile &f)
{
    static const char *kPunct[] = {
        "<<=", ">>=", "...", "->*", "::", "->", "++", "--", "<<", ">>",
        "<=", ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "/=",
        "%=", "&=", "|=", "^=",
    };
    std::vector<Tok> out;
    bool continuation = false;
    for (size_t li = 0; li < f.code.size(); ++li) {
        const std::string &s = f.code[li];
        int line = (int)li + 1;
        size_t firstNs = s.find_first_not_of(" \t\r");
        bool preproc =
            continuation ||
            (firstNs != std::string::npos && s[firstNs] == '#');
        if (preproc) {
            size_t lastNs = s.find_last_not_of(" \t\r");
            continuation =
                lastNs != std::string::npos && s[lastNs] == '\\';
            continue;
        }
        continuation = false;
        size_t i = 0;
        while (i < s.size()) {
            char c = s[i];
            if (std::isspace((unsigned char)c)) {
                ++i;
                continue;
            }
            if (isIdentStart(c)) {
                size_t b = i;
                while (i < s.size() && isIdentChar(s[i]))
                    ++i;
                out.push_back({s.substr(b, i - b), line, true});
                continue;
            }
            if (std::isdigit((unsigned char)c)) {
                size_t b = i;
                while (i < s.size() &&
                       (isIdentChar(s[i]) || s[i] == '.'))
                    ++i;
                out.push_back({s.substr(b, i - b), line, false});
                continue;
            }
            bool matched = false;
            for (const char *p : kPunct) {
                size_t n = std::strlen(p);
                if (s.compare(i, n, p) == 0) {
                    out.push_back({p, line, false});
                    i += n;
                    matched = true;
                    break;
                }
            }
            if (!matched) {
                out.push_back({std::string(1, c), line, false});
                ++i;
            }
        }
    }
    return out;
}

/** Does `map` carry a marker on `declLine` or up to four lines above
 *  it (the marker comment sits above the declaration)? */
const std::string *
markNear(const std::map<int, std::string> &map, int declLine)
{
    for (int l = declLine; l >= declLine - 4 && l >= 1; --l) {
        auto it = map.find(l);
        if (it != map.end())
            return &it->second;
    }
    return nullptr;
}

/** Extract the type leaf from the declaration tokens before the
 *  declared name: "$std" for std:: types (containers, string, ...),
 *  the smart-pointer element leaf for unique_ptr/shared_ptr, the last
 *  qualifier-leaf identifier otherwise, "" when hopeless. */
std::string
typeLeaf(const std::vector<Tok> &toks, size_t begin, size_t end)
{
    bool sawStd = false;
    std::string smart;
    std::string last;
    for (size_t i = begin; i < end; ++i) {
        const Tok &t = toks[i];
        if (!t.ident)
            continue;
        if (keywords().count(t.text))
            continue;
        if (t.text == "std") {
            sawStd = true;
            continue;
        }
        if (t.text == "unique_ptr" || t.text == "shared_ptr") {
            smart = t.text;
            continue;
        }
        last = t.text;
    }
    if (!smart.empty())
        return last; // element leaf inside the smart pointer
    if (sawStd)
        return "$std";
    return last;
}

struct Parser
{
    CallGraph &g;
    const SourceFile &f;
    int fileIndex;
    const std::vector<Tok> &t;
    size_t p = 0;

    Parser(CallGraph &graph, const SourceFile &file, int fi)
        : g(graph), f(file), fileIndex(fi), t(graph.tokens[fi])
    {
    }

    bool eof() const { return p >= t.size(); }
    const Tok &cur() const { return t[p]; }
    const std::string &txt(size_t i) const
    {
        static const std::string empty;
        return i < t.size() ? t[i].text : empty;
    }

    /** Skip from an opening token to just past its balanced closer. */
    void skipBalanced(const char *open, const char *close)
    {
        int depth = 0;
        while (!eof()) {
            if (cur().text == open)
                ++depth;
            else if (cur().text == close)
                if (--depth == 0) {
                    ++p;
                    return;
                }
            ++p;
        }
    }

    /** From a '<' token, skip a template argument list. Heuristic:
     *  bail (leaving p unchanged) when the angles do not balance
     *  before a ';' or unmatched ')' — then it was a comparison. */
    bool skipTemplateArgs()
    {
        size_t save = p;
        int depth = 0;
        int guard = 0;
        while (!eof() && guard++ < 200) {
            const std::string &s = cur().text;
            if (s == "<") {
                ++depth;
            } else if (s == ">") {
                if (--depth == 0) {
                    ++p;
                    return true;
                }
            } else if (s == ">>") {
                depth -= 2;
                if (depth <= 0) {
                    ++p;
                    return true;
                }
            } else if (s == ";" || s == "{" || s == "}") {
                break;
            }
            ++p;
        }
        p = save;
        return false;
    }

    /** Skip to just past the next ';' at balanced paren/brace depth. */
    void skipToSemi()
    {
        int par = 0, brace = 0, brack = 0;
        while (!eof()) {
            const std::string &s = cur().text;
            if (s == "(")
                ++par;
            else if (s == ")")
                --par;
            else if (s == "{")
                ++brace;
            else if (s == "}") {
                if (brace == 0)
                    return; // scope closer: missing ';', stop here
                --brace;
            } else if (s == "[")
                ++brack;
            else if (s == "]")
                --brack;
            else if (s == ";" && par <= 0 && brace <= 0 && brack <= 0) {
                ++p;
                return;
            }
            ++p;
        }
    }

    // ---- outer (namespace / class) scope ----

    void parseOuterScope(const std::string &classLeaf, ClassInfo *cls)
    {
        while (!eof()) {
            const std::string &s = cur().text;
            if (s == "}") {
                ++p;
                return;
            }
            if (s == ";") {
                ++p;
                continue;
            }
            if (s == "public" || s == "private" || s == "protected") {
                ++p;
                if (!eof() && cur().text == ":")
                    ++p;
                continue;
            }
            if (s == "namespace") {
                ++p;
                while (!eof() && (cur().ident || cur().text == "::"))
                    ++p;
                if (!eof() && cur().text == "=") { // namespace alias
                    skipToSemi();
                    continue;
                }
                if (!eof() && cur().text == "{") {
                    ++p;
                    parseOuterScope("", nullptr);
                }
                continue;
            }
            if (s == "template") {
                ++p;
                if (!eof() && cur().text == "<")
                    if (!skipTemplateArgs())
                        skipToSemi();
                continue;
            }
            if (s == "using" || s == "typedef" || s == "static_assert" ||
                s == "friend" || s == "extern") {
                // `extern "C" {` would need recursion, but src/ has
                // none; plain extern declarations end at ';'.
                skipToSemi();
                continue;
            }
            if (s == "enum") {
                skipToSemi();
                continue;
            }
            if (s == "class" || s == "struct" || s == "union") {
                parseClass();
                continue;
            }
            parseDeclOrFunction(classLeaf, cls);
        }
    }

    void parseClass()
    {
        ++p; // class/struct/union
        // qualified name; leaf wins (struct Renderer::TileWorker)
        std::string leaf;
        int nameLine = eof() ? 0 : cur().line;
        while (!eof() && (cur().ident || cur().text == "::")) {
            if (cur().ident && !keywords().count(cur().text)) {
                leaf = cur().text;
                nameLine = cur().line;
            }
            ++p;
        }
        if (!eof() && cur().text == "<")
            skipTemplateArgs(); // specialization
        if (eof())
            return;
        if (cur().text == ";") {
            ++p; // forward declaration
            return;
        }
        ClassInfo info;
        info.name = leaf;
        info.path = f.path;
        info.line = nameLine;
        if (markNear(f.poolShared, nameLine))
            info.poolShared = true;
        if (markNear(f.callerOwned, nameLine))
            info.callerOwned = true;
        if (cur().text == ":") {
            ++p;
            std::string baseLeaf;
            while (!eof() && cur().text != "{" && cur().text != ";") {
                const std::string &b = cur().text;
                if (cur().ident && !keywords().count(b) && b != "std")
                    baseLeaf = b;
                if (b == "<") {
                    skipTemplateArgs();
                    continue;
                }
                if (b == ",") {
                    if (!baseLeaf.empty())
                        info.bases.push_back(baseLeaf);
                    baseLeaf.clear();
                }
                ++p;
            }
            if (!baseLeaf.empty())
                info.bases.push_back(baseLeaf);
        }
        if (eof() || cur().text != "{") {
            skipToSemi();
            return;
        }
        ++p; // {
        // parse into a local and push at the end: nested classes push
        // into g.classes mid-body, which would invalidate a pointer
        ClassInfo local = info;
        parseOuterScope(leaf, &local);
        if (!leaf.empty()) {
            int clsIndex = (int)g.classes.size();
            g.classes.push_back(local);
            g.classByName[leaf].push_back(clsIndex);
        }
        skipToSemi(); // trailing declarator / ';'
    }

    /** Record a method declaration (and optionally nothing else) from
     *  collected header tokens [hb, he). Returns the param-paren index
     *  or SIZE_MAX when the tokens do not look like a callable. */
    size_t findParamParen(size_t hb, size_t he, std::string &name,
                          bool &isDtor) const
    {
        // first top-level '(' preceded by an identifier / operator-id
        int depth = 0;
        for (size_t i = hb; i < he; ++i) {
            const std::string &s = txt(i);
            if (s == "(") {
                if (depth == 0 && i > hb) {
                    // operator()(..): the name's parens come first
                    if (txt(i - 1) == "operator") {
                        if (i + 1 < he && txt(i + 1) == ")" &&
                            i + 2 < he && txt(i + 2) == "(") {
                            name = "operator()";
                            isDtor = false;
                            return i + 2;
                        }
                        return std::string::npos;
                    }
                    if (t[i - 1].ident &&
                        !keywords().count(txt(i - 1))) {
                        name = txt(i - 1);
                        isDtor = i >= hb + 2 && txt(i - 2) == "~";
                        if (isDtor)
                            name = "~" + name;
                        return i;
                    }
                    // operator+=( and friends: punct name
                    size_t o = i;
                    while (o > hb && !t[o - 1].ident &&
                           txt(o - 1) != ")" && txt(o - 1) != "]")
                        --o;
                    if (o > hb && txt(o - 1) == "operator" && o < i) {
                        name = "operator";
                        for (size_t k = o; k < i; ++k)
                            name += txt(k);
                        isDtor = false;
                        return i;
                    }
                    return std::string::npos;
                }
                ++depth;
            } else if (s == ")") {
                --depth;
            }
        }
        return std::string::npos;
    }

    /** Parse one parameter-list piece or local declaration's name and
     *  type from [b, e); record into fn. */
    void recordParam(FunctionDef &fn, size_t b, size_t e)
    {
        // name: the last depth-0 identifier before any '=' default
        size_t stop = e;
        int depth = 0;
        for (size_t i = b; i < e; ++i) {
            const std::string &s = txt(i);
            if (s == "(" || s == "[" || s == "<")
                ++depth;
            else if (s == ")" || s == "]" || s == ">")
                --depth;
            else if (s == ">>")
                depth -= 2;
            else if (s == "=" && depth == 0) {
                stop = i;
                break;
            }
        }
        size_t nameIdx = std::string::npos;
        depth = 0;
        for (size_t i = b; i < stop; ++i) {
            const std::string &s = txt(i);
            if (s == "(" || s == "[" || s == "<") {
                ++depth;
                continue;
            }
            if (s == ")" || s == "]" || s == ">") {
                --depth;
                continue;
            }
            if (s == ">>") {
                depth -= 2;
                continue;
            }
            if (depth == 0 && t[i].ident && !keywords().count(s))
                nameIdx = i;
        }
        if (nameIdx == std::string::npos || nameIdx == b)
            return; // unnamed or type-only
        std::string name = txt(nameIdx);
        std::string type = typeLeaf(t, b, nameIdx);
        bool byValue = true;
        for (size_t i = b; i < nameIdx; ++i)
            if (txt(i) == "&" || txt(i) == "*")
                byValue = false;
        fn.localType[name] = type;
        if (byValue)
            fn.localByValue.insert(name);
    }

    void parseDeclOrFunction(const std::string &classLeaf, ClassInfo *cls)
    {
        size_t hb = p;
        int par = 0, brack = 0;
        std::string stop;
        while (!eof()) {
            const std::string &s = cur().text;
            if (s == "(")
                ++par;
            else if (s == ")")
                --par;
            else if (s == "[")
                ++brack;
            else if (s == "]")
                --brack;
            else if (par <= 0 && brack <= 0 &&
                     (s == ";" || s == "{" || s == "=")) {
                stop = s;
                break;
            } else if (s == "}") {
                return; // malformed; let the caller see the closer
            }
            ++p;
        }
        if (eof())
            return;
        size_t he = p; // token index of the stop token

        std::string name;
        bool isDtor = false;
        size_t paren = findParamParen(hb, he, name, isDtor);

        if (stop == "=") {
            // `= default` / `= delete` / `= 0` → callable declaration;
            // otherwise a variable with an initializer.
            const std::string &nxt = txt(p + 1);
            if (paren != std::string::npos &&
                (nxt == "default" || nxt == "delete" || nxt == "0")) {
                recordCallableDecl(hb, he, paren, name, isDtor, cls);
                skipToSemi();
                return;
            }
            recordVariable(hb, he, classLeaf, cls);
            skipToSemi();
            return;
        }
        if (stop == ";") {
            if (paren != std::string::npos)
                recordCallableDecl(hb, he, paren, name, isDtor, cls);
            else
                recordVariable(hb, he, classLeaf, cls);
            ++p;
            return;
        }
        // stop == "{"
        if (paren == std::string::npos) {
            // brace-initialized variable: `Vec3 kUp{0,1,0};`
            recordVariable(hb, he, classLeaf, cls);
            skipBalanced("{", "}");
            skipToSemi();
            return;
        }
        defineFunction(hb, he, paren, name, isDtor, classLeaf, cls);
    }

    void recordCallableDecl(size_t hb, size_t he, size_t paren,
                            const std::string &name, bool isDtor,
                            ClassInfo *cls)
    {
        (void)hb;
        (void)isDtor;
        if (!cls)
            return;
        MethodDecl d;
        d.name = name;
        d.line = t[paren].line;
        size_t close = matchParen(paren);
        for (size_t i = close; i < he; ++i) {
            if (txt(i) == "const")
                d.isConst = true;
        }
        for (size_t i = hb; i < paren; ++i)
            if (txt(i) == "static")
                d.isStatic = true;
        cls->methods.push_back(d);
        // phase-/replay-root marker on a pure-virtual / out-of-line-
        // defined declaration: root every override via the hierarchy.
        recordDeclRoots(*cls, name, d.line);
    }

    void recordDeclRoots(const ClassInfo &cls, const std::string &name,
                         int line)
    {
        if (cls.name.empty())
            return;
        if (markNear(f.phaseRoot, line))
            g.declRoots.push_back({cls.name, name});
        if (markNear(f.replayRoot, line))
            g.replayDeclRoots.push_back({cls.name, name});
    }

    void recordVariable(size_t hb, size_t he, const std::string &classLeaf,
                        ClassInfo *cls)
    {
        // last depth-0 identifier is the declared name
        size_t nameIdx = std::string::npos;
        int depth = 0;
        for (size_t i = hb; i < he; ++i) {
            const std::string &s = txt(i);
            if (s == "(" || s == "[" || s == "<") {
                ++depth;
                continue;
            }
            if (s == ")" || s == "]" || s == ">") {
                --depth;
                continue;
            }
            if (s == ">>") {
                depth -= 2;
                continue;
            }
            if (depth == 0 && t[i].ident && !keywords().count(s))
                nameIdx = i;
        }
        if (nameIdx == std::string::npos || nameIdx == hb)
            return;
        std::string type = typeLeaf(t, hb, nameIdx);
        bool isConst = false, isTls = false, isStatic = false;
        for (size_t i = hb; i < nameIdx; ++i) {
            const std::string &s = txt(i);
            if (s == "const" || s == "constexpr" || s == "consteval")
                isConst = true;
            if (s == "thread_local")
                isTls = true;
            if (s == "static")
                isStatic = true;
        }
        // multi-declarator: `unsigned tilesX, tilesY;` — the last
        // depth-0 identifier of each comma segment is a declared name
        std::vector<std::string> names;
        {
            int d = 0;
            std::string segLast;
            bool segDone = false; // saw '=': initializer, name is fixed
            for (size_t i = hb; i < he; ++i) {
                const std::string &s = txt(i);
                if (s == "(" || s == "[" || s == "<") {
                    ++d;
                    continue;
                }
                if (s == ")" || s == "]" || s == ">") {
                    --d;
                    continue;
                }
                if (s == ">>") {
                    d -= 2;
                    continue;
                }
                if (d != 0)
                    continue;
                if (s == "=") {
                    segDone = true;
                    continue;
                }
                if (s == ",") {
                    if (!segLast.empty())
                        names.push_back(segLast);
                    segLast.clear();
                    segDone = false;
                    continue;
                }
                if (!segDone && t[i].ident && !keywords().count(s))
                    segLast = s;
            }
            if (!segLast.empty())
                names.push_back(segLast);
        }
        if (names.empty())
            names.push_back(txt(nameIdx));
        for (const std::string &name : names) {
            if (cls) {
                if (!isStatic)
                    cls->memberType[name] = type;
                else if (!isConst && !isTls && f.inSrc)
                    g.mutableStatics.insert(name);
                continue;
            }
            (void)classLeaf;
            // namespace scope: mutable static state (D4's territory;
            // P2 needs the names to catch reachable writes)
            if (!isConst && !isTls && f.inSrc)
                g.mutableStatics.insert(name);
        }
    }

    size_t matchParen(size_t open) const
    {
        int depth = 0;
        for (size_t i = open; i < t.size(); ++i) {
            if (txt(i) == "(")
                ++depth;
            else if (txt(i) == ")")
                if (--depth == 0)
                    return i;
        }
        return t.size();
    }

    void defineFunction(size_t hb, size_t he, size_t paren,
                        const std::string &name, bool isDtor,
                        const std::string &classLeaf, ClassInfo *cls)
    {
        FunctionDef fn;
        fn.id = (int)g.funcs.size();
        fn.name = name;
        fn.isDtor = isDtor;
        fn.path = f.path;
        fn.fileIndex = fileIndex;
        fn.line = t[hb].line;

        // qualification: `Renderer::recordFrame` / `Outer::Inner::f`
        size_t nb = paren - 1; // name token (punct for operators)
        if (name.rfind("operator", 0) == 0) {
            while (nb > hb && txt(nb) != "operator")
                --nb;
        }
        if (isDtor && nb > hb && txt(nb - 1) == "~")
            --nb;
        if (nb > hb + 1 && txt(nb - 1) == "::" && t[nb - 2].ident)
            fn.className = txt(nb - 2);
        else if (cls)
            fn.className = classLeaf;
        fn.isCtor = !fn.className.empty() && fn.name == fn.className;
        fn.display = fn.className.empty()
                         ? fn.name
                         : fn.className + "::" + fn.name;

        size_t close = matchParen(paren);
        // trailer between ')' and '{': const / noexcept / ctor inits
        size_t trailerEnd = he;
        for (size_t i = close; i < trailerEnd; ++i) {
            const std::string &s = txt(i);
            if (s == "const")
                fn.isConst = true;
            if (s == "noexcept") {
                bool negated = txt(i + 1) == "(" && txt(i + 2) == "false";
                if (!negated)
                    fn.isNoexcept = true;
            }
        }
        // ctor-init-list entries `member(args)` / `member{args}`:
        // constructing a member of class type is a call edge to that
        // type's constructor, resolved lazily (qualifier $memberinit).
        size_t init = close;
        while (init < he && txt(init) != ":")
            ++init;
        if (init < he) {
            size_t i = init + 1;
            while (i < he) {
                if (t[i].ident && !keywords().count(txt(i)) &&
                    (txt(i + 1) == "(" || txt(i + 1) == "{")) {
                    CallSite cs;
                    cs.kind = CallKind::Construct;
                    cs.name = txt(i);
                    cs.qualifier = "$memberinit";
                    cs.line = t[i].line;
                    fn.calls.push_back(cs);
                    // skip the balanced init args
                    const char *open = txt(i + 1) == "(" ? "(" : "{";
                    const char *closeTok = *open == '(' ? ")" : "}";
                    int d = 0;
                    size_t j = i + 1;
                    for (; j < he; ++j) {
                        if (txt(j) == open)
                            ++d;
                        else if (txt(j) == closeTok && --d == 0)
                            break;
                    }
                    i = j + 1;
                } else {
                    ++i;
                }
            }
        }

        // params
        {
            size_t b = paren + 1;
            int depth = 0;
            for (size_t i = paren + 1; i <= close && i < t.size(); ++i) {
                const std::string &s = txt(i);
                if (s == "(" || s == "[" || s == "<") {
                    ++depth;
                    continue;
                }
                if (s == ")" || s == "]" || s == ">") {
                    if (i == close && depth == 0) {
                        if (i > b)
                            recordParam(fn, b, i);
                        break;
                    }
                    --depth;
                    continue;
                }
                if (s == "," && depth == 0) {
                    recordParam(fn, b, i);
                    b = i + 1;
                }
            }
        }

        if (markNear(f.phaseRoot, fn.line) ||
            markNear(f.phaseRoot, t[paren].line))
            fn.phaseRoot = true;
        if (markNear(f.replayRoot, fn.line) ||
            markNear(f.replayRoot, t[paren].line))
            fn.replayRoot = true;

        int id = fn.id;
        g.funcs.push_back(fn);
        g.byName[name].push_back(id);
        if (cls) {
            MethodDecl d;
            d.name = name;
            d.line = t[paren].line;
            d.isConst = g.funcs[id].isConst;
            cls->methods.push_back(d);
            recordDeclRoots(*cls, name, d.line);
        }
        // body
        // (cur() is the '{' stop token)
        parseFunctionBody(id);
    }

    /** Parse a lambda starting at its '[' token; returns the new
     *  function id, or -1 if the brackets turn out not to introduce a
     *  lambda (p is restored). */
    int parseLambda(const std::string &enclosingClass)
    {
        size_t save = p;
        int line = cur().line;
        // capture list
        int d = 0;
        while (!eof()) {
            if (cur().text == "[")
                ++d;
            else if (cur().text == "]" && --d == 0) {
                ++p;
                break;
            }
            ++p;
        }
        if (eof()) {
            p = save;
            return -1;
        }
        FunctionDef fn;
        fn.id = (int)g.funcs.size();
        fn.name = "<lambda>";
        fn.className = enclosingClass;
        fn.isLambda = true;
        fn.path = f.path;
        fn.fileIndex = fileIndex;
        fn.line = line;
        {
            char buf[32];
            std::snprintf(buf, sizeof buf, ":%d", line);
            fn.display = "<lambda " + f.path + buf + ">";
        }
        // optional (params)
        if (!eof() && cur().text == "(") {
            size_t open = p, closeTok = matchParen(p);
            size_t b = open + 1;
            int depth = 0;
            for (size_t i = open + 1; i <= closeTok && i < t.size(); ++i) {
                const std::string &s = txt(i);
                if (s == "(" || s == "<") {
                    ++depth;
                    continue;
                }
                if (s == ")" || s == ">") {
                    if (i == closeTok && depth == 0) {
                        if (i > b)
                            recordParam(fn, b, i);
                        break;
                    }
                    --depth;
                    continue;
                }
                if (s == "," && depth == 0) {
                    recordParam(fn, b, i);
                    b = i + 1;
                }
            }
            p = closeTok + 1;
        }
        // specifiers / trailing return, then '{' within a short window
        int guard = 0;
        while (!eof() && cur().text != "{" && guard++ < 32) {
            if (cur().text == ";" || cur().text == ")" ||
                cur().text == ",") {
                p = save;
                return -1; // not a lambda body (e.g. attribute misfire)
            }
            if (cur().text == "noexcept")
                fn.isNoexcept = true;
            ++p;
        }
        if (eof() || cur().text != "{") {
            p = save;
            return -1;
        }
        if (markNear(f.phaseRoot, line))
            fn.phaseRoot = true;
        int id = fn.id;
        g.funcs.push_back(fn);
        g.byName[fn.name].push_back(id);
        parseFunctionBody(id);
        return id;
    }

    /** Parse a function body from its '{' token: call sites, local
     *  declarations, nested lambdas, local statics. */
    void parseFunctionBody(int fnId)
    {
        // (g.funcs may reallocate while nested lambdas are appended:
        // always re-index by id.)
        if (eof() || cur().text != "{")
            return;
        ++p;
        int depth = 1;
        size_t rangeStart = p;
        bool stmtStart = true;
        auto flushRange = [&](size_t end) {
            if (end > rangeStart)
                g.funcs[fnId].tokenRanges.push_back(
                    {(int)rangeStart, (int)end});
        };
        while (!eof()) {
            const std::string &s = cur().text;
            if (s == "{") {
                ++depth;
                ++p;
                stmtStart = true;
                continue;
            }
            if (s == "}") {
                if (--depth == 0) {
                    flushRange(p);
                    ++p;
                    return;
                }
                ++p;
                stmtStart = true;
                continue;
            }
            if (s == ";") {
                ++p;
                stmtStart = true;
                continue;
            }
            if (s == "[") {
                if (txt(p + 1) == "[") { // [[attribute]]
                    ++p;
                    ++p;
                    continue;
                }
                bool lambdaCtx = false;
                if (p > 0) {
                    const std::string &prev = txt(p - 1);
                    lambdaCtx = prev == "(" || prev == "," ||
                                prev == "=" || prev == "return" ||
                                prev == "{" || prev == ";" ||
                                prev == "&&" || prev == "||" ||
                                prev == "!" || prev == "?" || prev == ":";
                }
                if (lambdaCtx) {
                    size_t before = p;
                    int lid = parseLambda(g.funcs[fnId].className);
                    if (lid >= 0) {
                        flushRange(before);
                        rangeStart = p;
                        g.funcs[fnId].lambdas.push_back(lid);
                        continue;
                    }
                }
                ++p;
                continue;
            }
            if (s == "for" && txt(p + 1) == "(") {
                // range-for: type the loop variable (`const TileRecord
                // &rec : ctx.records`) so member chains resolve
                size_t close = matchParen(p + 1);
                size_t colon = 0;
                int d = 0;
                for (size_t i = p + 2; i < close; ++i) {
                    const std::string &w = txt(i);
                    if (w == "(" || w == "[" || w == "<")
                        ++d;
                    else if (w == ")" || w == "]" || w == ">")
                        --d;
                    else if (w == ">>")
                        d -= 2;
                    else if (w == ";" && d == 0)
                        break; // classic for; header decl is generic
                    else if (w == ":" && d == 0 &&
                             txt(i - 1) != ":" && txt(i + 1) != ":") {
                        colon = i;
                        break;
                    }
                }
                if (colon > p + 2)
                    recordParam(g.funcs[fnId], p + 2, colon);
                p += 2;
                stmtStart = false;
                continue;
            }
            if (s == "new" && t[p + 1 < t.size() ? p + 1 : p].ident &&
                !keywords().count(txt(p + 1))) {
                CallSite cs;
                cs.kind = CallKind::Construct;
                cs.name = txt(p + 1);
                cs.line = cur().line;
                g.funcs[fnId].calls.push_back(cs);
                p += 2;
                stmtStart = false;
                continue;
            }
            if (cur().ident && !keywords().count(s)) {
                // make_unique<T> / make_shared<T> → T's constructor
                if ((s == "make_unique" || s == "make_shared") &&
                    txt(p + 1) == "<") {
                    size_t save = p;
                    ++p;
                    size_t argB = p + 1;
                    if (skipTemplateArgs()) {
                        CallSite cs;
                        cs.kind = CallKind::Construct;
                        cs.name = typeLeaf(t, argB, p - 1);
                        cs.line = t[save].line;
                        g.funcs[fnId].calls.push_back(cs);
                        stmtStart = false;
                        continue;
                    }
                    p = save;
                }
                if (txt(p + 1) == "(") {
                    recordCallSite(fnId, p);
                    ++p;
                    stmtStart = false;
                    continue;
                }
                if (stmtStart) {
                    if (tryLocalDecl(fnId))
                        continue;
                }
                ++p;
                stmtStart = false;
                continue;
            }
            if (s == ")") {
                // end of a control header `if (...)` starts a statement
                ++p;
                stmtStart = true;
                continue;
            }
            ++p;
            if (s != "::" && s != "." && s != "->")
                stmtStart = false;
        }
        flushRange(p);
    }

    /** Record the call at identifier token `i` (followed by '('). */
    void recordCallSite(int fnId, size_t i)
    {
        CallSite cs;
        cs.name = txt(i);
        cs.line = t[i].line;
        if (i >= 2 && txt(i - 1) == "::") {
            cs.kind = CallKind::Qualified;
            if (t[i - 2].ident)
                cs.qualifier = txt(i - 2);
            g.funcs[fnId].calls.push_back(cs);
            return;
        }
        if (i >= 1 && (txt(i - 1) == "." || txt(i - 1) == "->")) {
            cs.kind = CallKind::Member;
            // walk the receiver chain backwards: base . a -> b . name
            size_t j = i - 1;
            std::vector<std::string> rev;
            bool known = true;
            while (j >= 1) {
                if (!t[j - 1].ident) {
                    known = false; // f(x).name( / arr[i].name(
                    break;
                }
                rev.push_back(txt(j - 1));
                if (j >= 3 &&
                    (txt(j - 2) == "." || txt(j - 2) == "->")) {
                    j -= 2;
                    continue;
                }
                break;
            }
            if (known) {
                cs.recv.assign(rev.rbegin(), rev.rend());
            }
            g.funcs[fnId].calls.push_back(cs);
            return;
        }
        cs.kind = CallKind::Unqualified;
        g.funcs[fnId].calls.push_back(cs);
    }

    /** At a statement-start identifier: try `Type name ...` local
     *  declaration. Returns true when consumed. */
    bool tryLocalDecl(int fnId)
    {
        size_t save = p;
        bool isStatic = false, isConst = false, isTls = false;
        while (!eof() && (cur().text == "static" ||
                          cur().text == "const" ||
                          cur().text == "constexpr" ||
                          cur().text == "thread_local")) {
            if (cur().text == "static")
                isStatic = true;
            if (cur().text == "const" || cur().text == "constexpr")
                isConst = true;
            if (cur().text == "thread_local")
                isTls = true;
            ++p;
        }
        // group1: qualified type name with optional template args
        size_t typeB = p;
        if (eof() || !cur().ident || keywords().count(cur().text)) {
            p = save;
            return false;
        }
        ++p;
        while (!eof()) {
            if (cur().text == "::" && t[p + 1 < t.size() ? p + 1 : p].ident) {
                p += 2;
                continue;
            }
            if (cur().text == "<") {
                if (!skipTemplateArgs()) {
                    p = save;
                    return false;
                }
                continue;
            }
            break;
        }
        size_t typeE = p;
        bool byValue = true;
        while (!eof() && (cur().text == "&" || cur().text == "*" ||
                          cur().text == "&&")) {
            byValue = false;
            ++p;
        }
        if (eof() || !cur().ident || keywords().count(cur().text) ||
            typeE == typeB) {
            p = save;
            return false;
        }
        std::string name = cur().text;
        const std::string &nxt = txt(p + 1);
        if (nxt != "=" && nxt != ";" && nxt != "(" && nxt != "{" &&
            nxt != ",") {
            p = save;
            return false;
        }
        std::string type = typeLeaf(t, typeB, typeE);
        FunctionDef &fn = g.funcs[fnId];
        fn.localType[name] = type;
        if (byValue)
            fn.localByValue.insert(name);
        if (isStatic && !isConst && !isTls && f.inSrc)
            g.mutableStatics.insert(name);
        if (!type.empty() && type != "$std" && g.classByName.count(type)) {
            CallSite cs;
            cs.kind = CallKind::Construct;
            cs.name = type;
            cs.line = cur().line;
            fn.calls.push_back(cs);
        }
        ++p; // past the declared name; initializer parses normally
        return true;
    }
};

} // namespace

CallGraph
buildCallGraph(const std::vector<SourceFile> &files)
{
    CallGraph g;
    g.tokens.resize(files.size());
    for (size_t i = 0; i < files.size(); ++i) {
        if (!files[i].inSrc)
            continue; // the phase invariants govern src/ only
        g.tokens[i] = tokenize(files[i]);
        Parser parser(g, files[i], (int)i);
        parser.parseOuterScope("", nullptr);
    }
    // class hierarchy closures (by leaf name; duplicate leafs merge)
    std::map<std::string, std::set<std::string>> direct;
    for (const ClassInfo &c : g.classes)
        for (const std::string &b : c.bases) {
            direct[c.name].insert(b);
            g.derived[b].insert(c.name);
        }
    // transitive closure (graphs are tiny; fixpoint iterate)
    bool changed = true;
    while (changed) {
        changed = false;
        for (auto &kv : direct) {
            std::set<std::string> add;
            for (const std::string &b : kv.second) {
                auto it = direct.find(b);
                if (it == direct.end())
                    continue;
                for (const std::string &bb : it->second)
                    if (!kv.second.count(bb))
                        add.insert(bb);
            }
            if (!add.empty()) {
                kv.second.insert(add.begin(), add.end());
                changed = true;
            }
        }
    }
    g.ancestors = direct;
    for (const auto &kv : g.ancestors)
        for (const std::string &a : kv.second)
            g.derived[a].insert(kv.first);
    // re-close derived transitively
    changed = true;
    while (changed) {
        changed = false;
        for (auto &kv : g.derived) {
            std::set<std::string> add;
            for (const std::string &d : kv.second) {
                auto it = g.derived.find(d);
                if (it == g.derived.end())
                    continue;
                for (const std::string &dd : it->second)
                    if (!kv.second.count(dd))
                        add.insert(dd);
            }
            if (!add.empty()) {
                kv.second.insert(add.begin(), add.end());
                changed = true;
            }
        }
    }
    return g;
}

namespace {

std::string
memberTypeInHierarchy(const CallGraph &g, const std::string &classLeaf,
                      const std::string &member)
{
    std::set<std::string> leafs = {classLeaf};
    auto it = g.ancestors.find(classLeaf);
    if (it != g.ancestors.end())
        leafs.insert(it->second.begin(), it->second.end());
    for (const std::string &leaf : leafs) {
        auto ci = g.classByName.find(leaf);
        if (ci == g.classByName.end())
            continue;
        for (int idx : ci->second) {
            auto mi = g.classes[idx].memberType.find(member);
            if (mi != g.classes[idx].memberType.end())
                return mi->second;
        }
    }
    return "$none";
}

std::vector<int>
methodsInHierarchy(const CallGraph &g, const std::string &classLeaf,
                   const std::string &name, bool includeDerived)
{
    std::set<std::string> leafs = {classLeaf};
    auto ai = g.ancestors.find(classLeaf);
    if (ai != g.ancestors.end())
        leafs.insert(ai->second.begin(), ai->second.end());
    if (includeDerived) {
        auto di = g.derived.find(classLeaf);
        if (di != g.derived.end())
            leafs.insert(di->second.begin(), di->second.end());
    }
    std::vector<int> out;
    auto bi = g.byName.find(name);
    if (bi == g.byName.end())
        return out;
    for (int id : bi->second)
        if (leafs.count(g.funcs[id].className))
            out.push_back(id);
    return out;
}

std::string
chainType(const CallGraph &g, const FunctionDef &caller,
          const std::vector<std::string> &recv)
{
    if (recv.empty())
        return ""; // unknown receiver
    std::string type;
    const std::string &base = recv[0];
    if (base == "this") {
        type = caller.className;
    } else {
        auto li = caller.localType.find(base);
        if (li != caller.localType.end()) {
            type = li->second;
        } else if (!caller.className.empty()) {
            std::string mt =
                memberTypeInHierarchy(g, caller.className, base);
            if (mt != "$none")
                type = mt;
        }
    }
    for (size_t i = 1; i < recv.size(); ++i) {
        if (type.empty() || type == "$std")
            return type;
        std::string mt = memberTypeInHierarchy(g, type, recv[i]);
        type = mt == "$none" ? "" : mt;
    }
    return type;
}

} // namespace

std::vector<int>
resolveCall(const CallGraph &g, const FunctionDef &caller,
            const CallSite &cs)
{
    std::vector<int> out;
    auto addCtors = [&](const std::string &cls) {
        auto bi = g.byName.find(cls);
        if (bi == g.byName.end())
            return;
        for (int id : bi->second)
            if (g.funcs[id].className == cls && g.funcs[id].isCtor)
                out.push_back(id);
    };
    switch (cs.kind) {
      case CallKind::Construct: {
        if (cs.qualifier == "$memberinit") {
            std::string mt =
                memberTypeInHierarchy(g, caller.className, cs.name);
            if (mt != "$none" && !mt.empty() && mt != "$std")
                addCtors(mt);
        } else {
            addCtors(cs.name);
        }
        break;
      }
      case CallKind::Qualified: {
        if (cs.qualifier == "std" || cs.qualifier.empty())
            break;
        if (g.classByName.count(cs.qualifier)) {
            // explicit qualification suppresses virtual dispatch
            out = methodsInHierarchy(g, cs.qualifier, cs.name, false);
        } else {
            // namespace qualifier → free functions of that name
            auto bi = g.byName.find(cs.name);
            if (bi != g.byName.end())
                for (int id : bi->second)
                    if (g.funcs[id].className.empty() &&
                        !g.funcs[id].isLambda)
                        out.push_back(id);
        }
        break;
      }
      case CallKind::Member: {
        std::string type = chainType(g, caller, cs.recv);
        if (type == "$std") {
            break; // std:: interior — external
        }
        if (!type.empty()) {
            if (g.classByName.count(type)) {
                out = methodsInHierarchy(g, type, cs.name, true);
            }
            // typed to a class the index has never seen (external
            // struct, enum, builtin): no edges
            break;
        }
        // untyped receiver: over-approximate to every method of that
        // name in the index (conservative must-not-miss)
        {
            auto bi = g.byName.find(cs.name);
            if (bi != g.byName.end())
                for (int id : bi->second)
                    if (!g.funcs[id].className.empty())
                        out.push_back(id);
        }
        break;
      }
      case CallKind::Unqualified: {
        auto bi = g.byName.find(cs.name);
        if (bi != g.byName.end())
            for (int id : bi->second)
                if (g.funcs[id].className.empty() && !g.funcs[id].isLambda)
                    out.push_back(id);
        if (!caller.className.empty()) {
            std::vector<int> own =
                methodsInHierarchy(g, caller.className, cs.name, true);
            out.insert(out.end(), own.begin(), own.end());
        }
        if (g.classByName.count(cs.name))
            addCtors(cs.name);
        break;
      }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

std::set<int>
reachableFrom(const CallGraph &g, const std::vector<int> &rootIds,
              std::map<int, int> *pred)
{
    std::set<int> seen;
    std::deque<int> queue;
    for (int id : rootIds)
        if (seen.insert(id).second)
            queue.push_back(id);
    while (!queue.empty()) {
        int id = queue.front();
        queue.pop_front();
        const FunctionDef &fn = g.funcs[id];
        std::vector<int> next;
        for (const CallSite &cs : fn.calls) {
            std::vector<int> r = resolveCall(g, fn, cs);
            next.insert(next.end(), r.begin(), r.end());
        }
        next.insert(next.end(), fn.lambdas.begin(), fn.lambdas.end());
        std::sort(next.begin(), next.end());
        next.erase(std::unique(next.begin(), next.end()), next.end());
        for (int n : next) {
            if (seen.insert(n).second) {
                if (pred)
                    (*pred)[n] = id;
                queue.push_back(n);
            }
        }
    }
    return seen;
}

std::string
reachPath(const CallGraph &g, const std::map<int, int> &pred, int target)
{
    std::vector<std::string> names;
    int cur = target;
    int guard = 0;
    names.push_back(g.funcs[cur].display);
    while (guard++ < 64) {
        auto it = pred.find(cur);
        if (it == pred.end())
            break;
        cur = it->second;
        names.push_back(g.funcs[cur].display);
    }
    std::string out;
    for (auto it = names.rbegin(); it != names.rend(); ++it) {
        if (!out.empty())
            out += " -> ";
        out += *it;
    }
    return out;
}

void
dumpCallGraph(const CallGraph &g, const std::vector<SourceFile> &files,
              const Options &opt)
{
    (void)files;
    (void)opt;
    std::printf("# texpim-lint call graph\n");
    std::vector<int> classOrder(g.classes.size());
    for (size_t i = 0; i < classOrder.size(); ++i)
        classOrder[i] = (int)i;
    std::sort(classOrder.begin(), classOrder.end(), [&](int a, int b) {
        if (g.classes[a].path != g.classes[b].path)
            return g.classes[a].path < g.classes[b].path;
        return g.classes[a].line < g.classes[b].line;
    });
    for (int ci : classOrder) {
        const ClassInfo &c = g.classes[ci];
        std::string attrs;
        if (c.poolShared)
            attrs += " pool-shared";
        if (c.callerOwned)
            attrs += " caller-owned";
        std::string bases;
        for (const std::string &b : c.bases)
            bases += (bases.empty() ? "" : ",") + b;
        std::printf("class %s %s:%d%s%s%s\n", c.name.c_str(),
                    c.path.c_str(), c.line, attrs.c_str(),
                    bases.empty() ? "" : " bases=", bases.c_str());
        for (const auto &kv : c.memberType)
            std::printf("  member %s : %s\n", kv.first.c_str(),
                        kv.second.empty() ? "?" : kv.second.c_str());
    }
    std::vector<int> fnOrder(g.funcs.size());
    for (size_t i = 0; i < fnOrder.size(); ++i)
        fnOrder[i] = (int)i;
    std::sort(fnOrder.begin(), fnOrder.end(), [&](int a, int b) {
        if (g.funcs[a].path != g.funcs[b].path)
            return g.funcs[a].path < g.funcs[b].path;
        if (g.funcs[a].line != g.funcs[b].line)
            return g.funcs[a].line < g.funcs[b].line;
        return a < b;
    });
    for (int fi : fnOrder) {
        const FunctionDef &fn = g.funcs[fi];
        std::string attrs;
        if (fn.isConst)
            attrs += " const";
        if (fn.isNoexcept)
            attrs += " noexcept";
        if (fn.isCtor)
            attrs += " ctor";
        if (fn.isDtor)
            attrs += " dtor";
        if (fn.isLambda)
            attrs += " lambda";
        if (fn.phaseRoot)
            attrs += " phase-root";
        if (fn.replayRoot)
            attrs += " replay-root";
        std::printf("func %s %s:%d%s\n", fn.display.c_str(),
                    fn.path.c_str(), fn.line, attrs.c_str());
        for (const CallSite &cs : fn.calls) {
            std::vector<int> r = resolveCall(g, fn, cs);
            std::string to;
            for (int id : r)
                to += (to.empty() ? "" : ", ") + g.funcs[id].display;
            const char *kind =
                cs.kind == CallKind::Construct
                    ? "construct"
                    : cs.kind == CallKind::Qualified
                          ? "qualified"
                          : cs.kind == CallKind::Member ? "member"
                                                        : "call";
            std::printf("  %s %s line=%d -> %s\n", kind,
                        cs.name.c_str(), cs.line,
                        to.empty() ? "(external)" : to.c_str());
        }
        for (int lid : fn.lambdas)
            std::printf("  lambda -> %s\n", g.funcs[lid].display.c_str());
    }
}

} // namespace texpim_lint
