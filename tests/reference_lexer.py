"""Reference lexer: the scan that `protomerge.syntax._lex` replaced, one
regular-expression match and one (kind, text, offset) tuple per token, with
every offset kept. It is the reference that the lexer's token texts, the
offsets `syntax._scan` works out for an error, and its bad-character errors
are checked against.
"""

from __future__ import annotations

import re

from protomerge.syntax import KEYWORDS, ParseError, SourceSpan

_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t\r\n]+)
      | (?P<comment>\#[^\n]*)
      | (?P<int>\d+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op>\.\.|==|!=|<=|>=|[+\-*/=<>{}\[\]():;|?])
      | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def lex(text: str, filename: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) of each token, ("eof", "", len(text)) last; kind
    is "int", "ident", "keyword" or "op", and `==` is spelled `=`."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws" or kind == "comment":
            continue
        tok = m.group()
        if kind == "ident":
            if tok in KEYWORDS:
                kind = "keyword"
        elif kind == "op":
            if tok == "==":
                tok = "="
        elif kind == "bad":
            offset = m.start()
            span = SourceSpan(filename, text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset))
            raise ParseError(f"unexpected character {tok!r}", span)
        tokens.append((kind, tok, m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens
