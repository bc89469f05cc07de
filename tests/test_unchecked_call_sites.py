"""Unchecked constructors run only where the library built the data itself.

The `_of_*` classmethods wrap a value with no copy and no check.  They
are allowed only at the call sites in ALLOWED: producers whose output is
valid by construction (keygen's public key, encapsulation, encryption,
the message constructors and decoders) and the IPQ1 ciphertext reader,
which checks the range of the file's words itself first.  Every other path, outside bytes
above all, goes through the checked constructors.  A new call site must
be added to ALLOWED, where a reviewer sees it.
"""

import ast
from pathlib import Path

import ipcrypt

PACKAGE = Path(ipcrypt.__file__).parent
PREFIX = "_of_"

# (module, enclosing function, the expression that names the constructor)
ALLOWED = {
    ("encoding", "Message.from_int", "cls._of_bits"),
    ("encoding", "Message.random", "cls._of_bits"),
    ("encoding", "decode_map2", "Message._of_bits"),
    ("kem", "kem_keygen", "KemPublicKey._of_matrix"),
    ("kem", "kem_encaps", "KemCiphertext._of_uv"),
    ("symmetric", "sym_encrypt", "GridFunction._of_samples"),
    ("formats", "read_kem_ciphertext", "KemCiphertext._of_uv"),
}

UNCHECKED = {
    "Message._of_bits",
    "GridFunction._of_samples",
    "KemPublicKey._of_matrix",
    "KemCiphertext._of_uv",
}


class _Walk(ast.NodeVisitor):
    """Definitions of `_of_*` methods, and every use of such a name, by enclosing scope."""

    def __init__(self, module: str) -> None:
        self.module = module
        self.scope: list[str] = []
        self.defined: set[str] = set()
        self.uses: set[tuple] = set()

    def _enter(self, node) -> None:
        if node.name.startswith(PREFIX) and self.scope:
            self.defined.add(f"{self.scope[-1]}.{node.name}")
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def _use(self, text: str) -> None:
        self.uses.add((self.module, ".".join(self.scope) or None, text))

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr.startswith(PREFIX):
            self._use(ast.unparse(node))
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if node.id.startswith(PREFIX):
            self._use(node.id)

    def visit_Constant(self, node: ast.Constant) -> None:
        # getattr(cls, "_of_uv") and the like
        if isinstance(node.value, str) and node.value.startswith(PREFIX):
            self._use(repr(node.value))


def walk_library() -> tuple[set[str], set[tuple]]:
    defined, uses = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        walk = _Walk(path.stem)
        walk.visit(ast.parse(path.read_text()))
        defined |= walk.defined
        uses |= walk.uses
    return defined, uses


DEFINED, USES = walk_library()


def test_the_walk_finds_every_unchecked_constructor():
    assert DEFINED == UNCHECKED


def test_unchecked_constructors_are_called_only_at_the_allowed_sites():
    assert USES - ALLOWED == set(), "an unchecked constructor is used at a site not in ALLOWED"


def test_every_allowed_site_still_uses_its_constructor():
    assert ALLOWED - USES == set(), "ALLOWED names a site that no longer exists: prune it"
