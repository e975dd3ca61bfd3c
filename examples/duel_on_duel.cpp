// DUEL probing itself. The paper: "Once the initial implementation was
// working, it was used to probe both itself and gdb."
//
// We parse a DUEL query with DUEL's own parser, mirror the resulting AST
// into the simulated debuggee as plain C structs, and then use DUEL to
// explore DUEL's data structure:
//
//   struct ast { char *opname; char *text; int nkids; struct ast *kids[4]; };
//
//   $ ./duel_on_duel

#include <iostream>

#include "src/duel/duel.h"

using namespace duel;

namespace {

// Mirrors a parsed AST into target memory; returns the root node's address.
target::Addr MirrorAst(target::ImageBuilder& b, target::TypeRef ast_type, const Node& n) {
  target::Addr kids[4] = {0, 0, 0, 0};
  size_t nkids = std::min<size_t>(n.kids.size(), 4);
  for (size_t i = 0; i < nkids; ++i) {
    kids[i] = MirrorAst(b, ast_type, *n.kids[i]);
  }
  target::Addr node = b.Alloc(ast_type);
  b.PokePtr(b.FieldAddr(node, ast_type, "opname"), b.String(OpName(n.op)));
  b.PokePtr(b.FieldAddr(node, ast_type, "text"),
            n.text.empty() ? b.String("") : b.String(n.text));
  b.PokeI32(b.FieldAddr(node, ast_type, "nkids"), static_cast<int32_t>(nkids));
  target::Addr kids_base = b.FieldAddr(node, ast_type, "kids");
  for (size_t i = 0; i < 4; ++i) {
    b.PokePtr(kids_base + i * 8, kids[i]);
  }
  return node;
}

void Run(Session& session, const std::string& query) {
  std::cout << "duel> " << query << "\n";
  std::cout << session.Query(query).Text() << "\n";
}

}  // namespace

int main() {
  // The query under the microscope: the paper's symbol-table scan.
  const std::string kSubject = "(hash[..1024] !=? 0)->scope >? 5";
  std::cout << "parsing with DUEL's own parser:  " << kSubject << "\n\n";
  Parser parser(kSubject);
  ParseResult parsed = parser.Parse();
  std::cout << "AST (the paper's LISP notation):\n  " << DumpAst(*parsed.root) << "\n\n";

  // Mirror the interpreter's own data structure into a debuggee image.
  target::TargetImage image;
  target::InstallStandardFunctions(image);
  target::ImageBuilder b(image);
  target::TypeRef ast = b.Struct("ast")
                            .Field("opname", b.Ptr(b.Char()))
                            .Field("text", b.Ptr(b.Char()))
                            .Field("nkids", b.Int())
                            .Field("kids", b.Arr(b.Ptr(b.StructRef("ast")), 4))
                            .Build();
  target::Addr root_addr = MirrorAst(b, ast, *parsed.root);
  target::Addr root_var = b.Global("root", b.Ptr(ast));
  b.PokePtr(root_var, root_addr);

  dbg::SimBackend backend(image);
  Session session(backend);

  std::cout << "== how many nodes does the AST have?\n";
  Run(session, "#/(root-->(kids[..4]))");

  std::cout << "== preorder walk of the operators\n";
  Run(session, "root-->(kids[..4])->opname");

  std::cout << "== which variable names does the query mention?\n"
               "   (string equality, spelled with a sequence comparison)\n";
  Run(session, "root-->(kids[..4])->(if (opname[0..]@0 === (\"name\")[0..]@0) text)");

  std::cout << "== nodes with exactly two children\n";
  Run(session, "#/(root-->(kids[..4])->nkids ==? 2)");

  std::cout << "== the filter nodes (the ?-comparisons) in the tree\n";
  Run(session, "root-->(kids[..4])->(if (opname[0] == 'i' && opname[1] == 'f') opname)");
  return 0;
}
