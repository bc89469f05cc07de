"""Only hso looks up the operator; the samples a caller passes pick its grid.

The functions that apply the operator or one of its inverses take the
samples alone and find the cached operator themselves, so no module but
hso names `build_hso`.  `hso_svd` is named outside hso only where the
singular values are themselves wanted: the TSVD cutoff, the spectrum and
analogy commands, and the one call in `sym_decrypt` whose cold cost the
benchmark reads (ROADMAP item 2).  Every reference counts, imports and
bare names too, so an alias cannot hide a call.  A new site must be
added to ALLOWED, so that each one is seen and agreed to.
"""

import ast
from pathlib import Path

import ipcrypt

PACKAGE = Path(ipcrypt.__file__).parent
NAMES = {"build_hso", "hso_svd"}

# (module, enclosing function, the name it uses)
ALLOWED = {
    ("attacks", "Tsvd.invert", "hso_svd"),
    ("cli", "_cmd_spectrum", "hso_svd"),
    ("cli", "_cmd_analogy", "hso_svd"),
    ("symmetric", "sym_decrypt", "hso_svd"),
}


class _Walk(ast.NodeVisitor):
    """Every reference to a name in NAMES, by module and enclosing scope."""

    def __init__(self, module: str) -> None:
        self.module = module
        self.scope: list[str] = []
        self.uses: set[tuple] = set()

    def _enter(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def _use(self, name: str) -> None:
        if name in NAMES:
            self.uses.add((self.module, ".".join(self.scope) or None, name))

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._use(node.attr)
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        self._use(node.id)

    def visit_alias(self, node: ast.alias) -> None:
        self._use(node.name)


def walk_library() -> set[tuple]:
    uses = set()
    for path in sorted(PACKAGE.glob("*.py")):
        walk = _Walk(path.stem)
        walk.visit(ast.parse(path.read_text()))
        uses |= walk.uses
    return uses


USES = walk_library()
OUTSIDE_HSO = {use for use in USES if use[0] != "hso"}


def test_the_walk_finds_the_lookup_inside_hso():
    assert ("hso", "_operator", "build_hso") in USES


def test_no_module_but_hso_builds_the_operator():
    assert {use for use in OUTSIDE_HSO if use[2] == "build_hso"} == set()


def test_singular_systems_are_looked_up_only_at_the_allowed_sites():
    assert OUTSIDE_HSO - ALLOWED == set(), "hso_svd is used at a site not in ALLOWED"


def test_every_allowed_site_still_uses_hso_svd():
    assert ALLOWED - OUTSIDE_HSO == set(), "ALLOWED names a site that no longer exists: prune it"
