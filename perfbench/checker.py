"""Output checker for the benchmark. It shares no code with the program.

It reads the KISS2 table of a machine and the stdout of
`nova encode --pla`, then checks the payload the way a user of the PLA
would: the state codes are distinct and of the declared width, the PLA
has the declared shape and area, and every specified transition and
output bit of the table is realized by the PLA.

Don't-care policy (the one the paper's flow assumes):
- an output entry '-' leaves that bit free;
- an unspecified next state ('-' or '*') leaves the whole next code free;
- a (state, input) point matched by no row is free;
- a present state '*' applies in every state;
- rows match first-match-first, in file order.
"""

import re


class Kiss2:
    def __init__(self, text):
        self.ni = self.no = None
        self.reset = None
        self.rows = []  # (input cube str, src or None, dst or None, outputs str)
        self.states = []
        seen = set()

        def note(s):
            if s not in seen:
                seen.add(s)
                self.states.append(s)

        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            f = line.split()
            if f[0] == ".i":
                self.ni = int(f[1])
            elif f[0] == ".o":
                self.no = int(f[1])
            elif f[0] == ".r":
                self.reset = f[1]
            elif f[0].startswith("."):
                continue
            else:
                inp, src, dst = f[0], f[1], f[2]
                out = f[3] if len(f) > 3 else ""
                src = None if src == "*" else src
                dst = None if dst in ("-", "*") else dst
                for s in (src, dst):
                    if s is not None:
                        note(s)
                self.rows.append((inp, src, dst, out))
        if self.reset is not None:
            note(self.reset)
        if self.ni is None or self.no is None:
            raise ValueError("KISS2 table lacks .i or .o")


def rename_kiss2(text, prefix):
    """The KISS2 text with every state name prefixed by `prefix`."""
    out = []
    for raw in text.splitlines():
        f = raw.split()
        if f and f[0] == ".r":
            out.append(".r " + prefix + f[1])
        elif f and not f[0].startswith(".") and len(f) >= 3:
            src = f[1] if f[1] == "*" else prefix + f[1]
            dst = f[2] if f[2] in ("-", "*") else prefix + f[2]
            out.append(" ".join([f[0], src, dst] + f[3:]))
        else:
            out.append(raw)
    return "\n".join(out) + "\n"


HEADER = re.compile(r"^machine (\S+): (\d+) states encoded in (\d+) bits$")
IMPL = re.compile(r"^two-level implementation: (\d+) product terms, PLA area (\d+)$")


def split_payload(payload):
    """(text part, PLA part) of a `nova encode --pla` stdout."""
    i = payload.find("\n.i ")
    if i < 0:
        return payload, ""
    return payload[: i + 1], payload[i + 1:]


def canonical_text(text, prefix):
    """The encode text with the state rename `prefix` undone.

    State lines are re-rendered with the program's documented layout
    (two spaces, the name left-justified in 12 columns, a space, the
    code), so a renamed payload compares byte for byte with the payload
    of the original machine."""
    lines = text.split("\n")
    m = HEADER.match(lines[0]) if lines else None
    if not m:
        raise ValueError("payload has no 'machine ...' header")
    n = int(m.group(2))
    for k in range(1, n + 1):
        f = lines[k].split()
        if len(f) != 2 or not f[0].startswith(prefix):
            raise ValueError("state line %d is malformed or not renamed: %r" % (k, lines[k]))
        lines[k] = "  %-12s %s" % (f[0][len(prefix):], f[1])
    return "\n".join(lines)


def summary(text):
    """(num_cubes, area) from the encode text."""
    for line in text.splitlines():
        m = IMPL.match(line)
        if m:
            return int(m.group(1)), int(m.group(2))
    raise ValueError("payload has no 'two-level implementation' line")


def check_pla_payload(kiss, payload):
    """Check a `nova encode --pla` payload (state names as in `kiss`)
    against the table. Returns None when correct, else a reason."""
    try:
        return _check(kiss, payload)
    except (ValueError, IndexError, KeyError) as e:
        return "unparseable payload: %s" % e


def _check(kiss, payload):
    text, pla = split_payload(payload)
    lines = text.split("\n")
    m = HEADER.match(lines[0])
    if not m:
        return "no header"
    n, nb = int(m.group(2)), int(m.group(3))
    if n != len(kiss.states):
        return "payload has %d states, table %d" % (n, len(kiss.states))
    codes = {}
    for k in range(1, n + 1):
        name, code = lines[k].split()
        if len(code) != nb or set(code) - set("01"):
            return "bad code %r for %s" % (code, name)
        codes[name] = int(code, 2)
    if set(codes) != set(kiss.states):
        return "payload states differ from the table's"
    if len(set(codes.values())) != n:
        return "codes are not distinct"
    cubes, area = summary(text)

    ni, no = kiss.ni, kiss.no
    nin, nout = ni + nb, nb + no
    plines = [l for l in pla.splitlines() if l.strip()]
    hdr = dict(l.split()[:2] for l in plines if l.startswith(".") and len(l.split()) >= 2)
    if int(hdr.get(".i", -1)) != nin or int(hdr.get(".o", -1)) != nout:
        return "PLA shape .i %s .o %s, expected %d/%d" % (hdr.get(".i"), hdr.get(".o"), nin, nout)
    terms = [l.split() for l in plines if not l.startswith(".")]
    if len(terms) != cubes or int(hdr.get(".p", -1)) != cubes:
        return "PLA holds %d terms, payload claims %d" % (len(terms), cubes)
    if area != (2 * nin + nout) * cubes:
        return "area %d is not (2*%d+%d)*%d" % (area, nin, nout, cubes)

    # PLA input column j < ni is primary input j; column ni+b is bit b of
    # the state code, counted from the least significant end (the printed
    # code is most significant first). Output column b < nb is bit b of
    # the next code, counted the same way; the rest are the outputs.
    pts = []
    for inp, out in terms:
        if len(inp) != nin or len(out) != nout:
            return "PLA term of the wrong width"
        mask = val = 0
        for j, ch in enumerate(inp):
            bit = 1 << j
            if ch == "0":
                mask |= bit
            elif ch == "1":
                mask |= bit
                val |= bit
            elif ch != "-":
                return "PLA term has literal %r" % ch
        pts.append((mask, val, int(out[::-1], 2)))

    def point(x, code):
        p = 0
        for j in range(ni):
            if (x >> (ni - 1 - j)) & 1:
                p |= 1 << j
        for b in range(nb):
            if (code >> b) & 1:
                p |= 1 << (ni + b)
        return p

    def row_matches(cube, x):
        for j, ch in enumerate(cube):
            if ch != "-" and int(ch) != (x >> (ni - 1 - j)) & 1:
                return False
        return True

    for s in kiss.states:
        rows = [r for r in kiss.rows if r[1] is None or r[1] == s]
        for x in range(1 << ni):
            row = next((r for r in rows if row_matches(r[0], x)), None)
            if row is None:
                continue
            p = point(x, codes[s])
            got = 0
            for mask, val, out in pts:
                if p & mask == val:
                    got |= out
            _, _, dst, outs = row
            if dst is not None:
                want = codes[dst]
                for b in range(nb):
                    if (got >> b) & 1 != (want >> b) & 1:
                        return "state %s input %s: next code wrong" % (s, format(x, "0%db" % ni))
            for j, ch in enumerate(outs):
                if ch in "01" and (got >> (nb + j)) & 1 != int(ch):
                    return "state %s input %s: output %d wrong" % (s, format(x, "0%db" % ni), j)
    return None
