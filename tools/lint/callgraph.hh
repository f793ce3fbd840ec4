/**
 * @file
 * A lightweight, dependency-free call-graph indexer for texpim-lint.
 *
 * Single pass over the comment/string-stripped token stream of every
 * scanned file; no preprocessing, no template instantiation, no
 * overload resolution. The index collects:
 *
 *   - classes/structs (leaf name, bases, member-variable types,
 *     method declarations with constness) including out-of-line nested
 *     definitions (`struct Renderer::TileWorker { ... }`),
 *   - function and method definitions (free, in-class, out-of-line
 *     `Class::method`, operators, constructors, destructors) with
 *     const/noexcept attributes and body token ranges,
 *   - lambdas, indexed as `<lambda path:line>` and linked to their
 *     defining function by an implicit call edge (so a lambda stored
 *     in a std::function member or passed to std::thread is reachable
 *     whenever its definition site is — conservative must-not-miss),
 *   - call sites with receiver-chain / qualifier context and
 *     best-effort local/param/member type tables for resolution.
 *
 * Resolution is deliberately conservative in the must-not-miss
 * direction (see resolveCall):
 *
 *   - a receiver chain that types to a known class resolves to that
 *     class's methods plus its ancestors (inherited implementations)
 *     and descendants (virtual dispatch),
 *   - a receiver chain that types to a std:: container/smart-pointer
 *     interior is external: no edges (`vec.clear()` must not drag in
 *     every `clear()` method in the tree),
 *   - an UNTYPED receiver falls back to every method of that name in
 *     the index — over-approximate on purpose,
 *   - unqualified calls resolve to free functions of that name plus
 *     (for methods) the caller's own class hierarchy,
 *   - `T x(...)`, `make_unique<T>`, `make_shared<T>` and `new T`
 *     create edges to T's constructors.
 *
 * What it knowingly misses (documented, accepted): calls through
 * function POINTERS obtained from &f (rare in src/, none on the phase
 * paths), templates instantiated with callable type parameters where
 * the callee name never appears at the call site, and overload
 * selection (all same-name candidates are edges). The miss direction
 * for the reachability rules is over-approximation — extra edges, not
 * missing ones — except for &f pointers, which DESIGN.md lists as the
 * one known hole.
 */

#ifndef TEXPIM_TOOLS_LINT_CALLGRAPH_HH
#define TEXPIM_TOOLS_LINT_CALLGRAPH_HH

#include "lint.hh"

#include <map>
#include <set>
#include <string>
#include <vector>

namespace texpim_lint {

/** One lexical token of a file's blanked `code` view. */
struct Tok
{
    std::string text;
    int line = 0;     //!< 1-based
    bool ident = false;
};

/** A method declaration seen in a class body (definitions get a
 *  FunctionDef as well). */
struct MethodDecl
{
    std::string name;
    int line = 0;
    bool isConst = false;
    bool isStatic = false;
};

struct ClassInfo
{
    std::string name;  //!< leaf name (TileWorker, not Renderer::TileWorker)
    std::string path;
    int line = 0;
    std::vector<std::string> bases; //!< leaf names of direct bases
    /** member variable -> type leaf ("" unknown, "$std" external). */
    std::map<std::string, std::string> memberType;
    std::vector<MethodDecl> methods;
    bool poolShared = false;   //!< `texpim-lint: pool-shared`
    bool callerOwned = false;  //!< `texpim-lint: caller-owned`
};

/** How a call site names its target. */
enum class CallKind {
    Unqualified, //!< foo(...)
    Qualified,   //!< Class::foo(...) / ns::foo(...)
    Member,      //!< recv.foo(...) / recv->foo(...)
    Construct,   //!< T x(..) / make_shared<T>(..) / new T(..)
};

struct CallSite
{
    std::string name;      //!< callee leaf name (class name for Construct)
    CallKind kind = CallKind::Unqualified;
    std::string qualifier; //!< for Qualified: the X of X::name
    /** for Member: receiver chain base-first, e.g. {scene, textures}
     *  for scene.textures->foo(). Empty chain = unknown receiver
     *  (e.g. f(x).foo()). */
    std::vector<std::string> recv;
    int line = 0;
};

struct FunctionDef
{
    int id = -1;
    std::string name;      //!< leaf: recordFrame, ~Foo, operator+=, <lambda>
    std::string className; //!< enclosing class leaf, "" for free functions
    std::string display;   //!< Class::name, name, or <lambda path:line>
    std::string path;
    int line = 0;          //!< header line
    int fileIndex = -1;    //!< index into the scanned file vector
    bool isConst = false;
    bool isNoexcept = false;
    bool isDtor = false;
    bool isCtor = false;
    bool isLambda = false;
    bool phaseRoot = false;
    bool replayRoot = false;
    std::vector<CallSite> calls;
    std::vector<int> lambdas; //!< ids of lambdas defined in this body
    /** local/param name -> type leaf ("" unknown, "$std" external). */
    std::map<std::string, std::string> localType;
    /** locals/params held BY VALUE (candidate T1 exemption). */
    std::set<std::string> localByValue;
    /** body token ranges [begin,end) in the per-file token stream,
     *  minus nested lambda bodies (those belong to the lambda). */
    std::vector<std::pair<int, int>> tokenRanges;
};

struct CallGraph
{
    std::vector<FunctionDef> funcs;
    std::vector<ClassInfo> classes;
    /** function leaf name -> func ids. */
    std::map<std::string, std::vector<int>> byName;
    /** class leaf name -> indices into classes (duplicates possible
     *  across files; all are merged during lookup). */
    std::map<std::string, std::vector<int>> classByName;
    /** class leaf -> transitive descendant leafs (virtual dispatch). */
    std::map<std::string, std::set<std::string>> derived;
    /** class leaf -> transitive ancestor leafs. */
    std::map<std::string, std::set<std::string>> ancestors;
    /** mutable namespace-scope / local-static variable names found in
     *  src/ (non-const, non-thread_local): the P2 write targets. */
    std::set<std::string> mutableStatics;
    /** phase-root markers attached to method DECLARATIONS (e.g. a
     *  pure-virtual `sample`): (class leaf, method name); resolved
     *  through the hierarchy so every override is rooted. */
    std::vector<std::pair<std::string, std::string>> declRoots;
    /** replay-root markers on method declarations (R1), resolved the
     *  same way. */
    std::vector<std::pair<std::string, std::string>> replayDeclRoots;
    /** per-file token streams, parallel to the scanned file vector. */
    std::vector<std::vector<Tok>> tokens;
};

/** Build the index over every file in `files`. */
CallGraph buildCallGraph(const std::vector<SourceFile> &files);

/** Resolve one call site to candidate function ids (see file
 *  comment for the conservative semantics). */
std::vector<int> resolveCall(const CallGraph &g, const FunctionDef &caller,
                             const CallSite &cs);

/** Compute the set of function ids reachable from `rootIds` via
 *  resolved call edges and implicit lambda edges. `pred` (optional)
 *  receives a breadth-first predecessor map for path reporting. */
std::set<int> reachableFrom(const CallGraph &g,
                            const std::vector<int> &rootIds,
                            std::map<int, int> *pred);

/** Render a root→target call path ("a -> b -> c") from `pred`. */
std::string reachPath(const CallGraph &g, const std::map<int, int> &pred,
                      int target);

/** Deterministic text dump of the whole graph (for --callgraph-dump
 *  and the indexer fixture tests). */
void dumpCallGraph(const CallGraph &g, const std::vector<SourceFile> &files,
                   const Options &opt);

} // namespace texpim_lint

#endif // TEXPIM_TOOLS_LINT_CALLGRAPH_HH
