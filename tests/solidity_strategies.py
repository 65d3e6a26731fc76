"""Hypothesis strategies for Solidity-like source text.

Contracts, members, function headers and statements are drawn from small
lists and joined with noise (comments, stray literals, odd whitespace), so
the text is often, but not always, parseable. The lists hold each kind of
call site the parser classifies (a name call, ``emit``, a builtin, a
low-level ``call`` with ``{...}`` or ``.value(...)`` options, ``send``),
owner and unsigned state variables, and a header whose parameters shadow
state variables.
"""

from hypothesis import strategies as st

NOISE = ["", " ", "\n", "\t", "\r\n", "// note }\n", "/* { */", "/* open", '"s;{"',
         "'c'", 'hex"00"', "@", "#", "0x1f", "1e5"]
_STATEMENTS = ["x = 1;", "x += y;", "a++;", "require(a > 0);", "balances[a] = 0;",
               "msg.sender.call{value: 1}(\"\");", "return a;", "emit E(a);", "f();",
               "uint256 z = now % 7;", "unchecked { a--; }", "if (a) { b = 2; }", ";",
               "msg.sender.call.value(1)(\"\");", "x.send(1);", "owner = a;"]
_HEADERS = ["function f()", "function g(uint a, bytes memory b)", "constructor()",
            "receive() external payable", "function (uint)", "function h() public view",
            "function k() internal returns (uint, bool)", "function m(uint) onlyOwner(1)",
            "function o() override(A, B)", "fallback", "function s(address owner, uint x) public"]
_MEMBERS = ["uint256 x;", "mapping(address => uint) balances;", "modifier onlyOwner() { _; }",
            "event E(uint a);", "struct S { uint a; }", "@ %;", "address owner;"]


def _pieces(options):
    return st.lists(st.tuples(st.sampled_from(NOISE), st.sampled_from(options)), max_size=6) \
        .map(lambda pairs: "".join(noise + item for noise, item in pairs))


_FUNCTION = st.builds(lambda header, noise, body, bodiless:
                      header + noise + (";" if bodiless else "{" + body + "}"),
                      st.sampled_from(_HEADERS), st.sampled_from(NOISE),
                      _pieces(_STATEMENTS), st.booleans())
CONTRACT = st.builds(lambda kind, members, functions, tail: f"{kind} C{{{members}{functions}}}{tail}",
                     st.sampled_from(["contract", "library", "interface", "contract D is B,"]),
                     _pieces(_MEMBERS),
                     st.lists(st.tuples(st.sampled_from(NOISE), _FUNCTION), max_size=4)
                     .map(lambda pairs: "".join(a + b for a, b in pairs)),
                     st.sampled_from(NOISE + ["{", "}"]))

#: A whole file: leading noise, a pragma (or none), then up to three contracts.
SOURCE = st.builds(lambda lead, pragma, contracts: lead + pragma + "".join(contracts),
                   st.sampled_from(NOISE),
                   st.sampled_from(["pragma solidity ^0.8.0;", "pragma solidity ^0.4.24;", ""]),
                   st.lists(CONTRACT, max_size=3))
