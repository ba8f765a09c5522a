"""Bigraded Betti tables: (homological degree, weight) -> dimension."""

import csv
import io
import json

__all__ = ["BettiTable"]


class BettiTable:
    """Dimension table of a bigraded homology, exact within its caps.

    entries maps (hdeg, weight) -> dimension; zero entries are not stored.
    """

    def __init__(self, deg_cap, weight_cap, entries=None):
        if min(deg_cap, weight_cap) < 0:
            raise ValueError("caps %r must be >= 0" % ([deg_cap, weight_cap],))
        self.deg_cap = deg_cap
        self.weight_cap = weight_cap
        self.entries = {}
        if entries:
            for (h, w), d in entries.items():
                self.set(h, w, d)

    def set(self, h, w, dim):
        if dim < 0:
            raise ValueError("negative dimension at (%d, %d)" % (h, w))
        if dim:
            self.entries[(h, w)] = dim
        else:
            self.entries.pop((h, w), None)

    def get(self, h, w):
        return self.entries.get((h, w), 0)

    def degree_total(self, h):
        return sum(d for (hh, _), d in self.entries.items() if hh == h)

    def diff(self, other):
        """Entrywise differences on the intersection of the caps.

        Returns a list of ((h, w), self_dim, other_dim) triples.
        """
        hcap = min(self.deg_cap, other.deg_cap)
        wcap = min(self.weight_cap, other.weight_cap)
        out = []
        keys = set(self.entries) | set(other.entries)
        for h, w in sorted(keys):
            if h > hcap or w > wcap:
                continue
            a, b = self.get(h, w), other.get(h, w)
            if a != b:
                out.append(((h, w), a, b))
        return out

    def __eq__(self, other):
        return (isinstance(other, BettiTable)
                and self.deg_cap == other.deg_cap
                and self.weight_cap == other.weight_cap
                and self.entries == other.entries)

    def to_json(self):
        return json.dumps({
            "deg_cap": self.deg_cap,
            "weight_cap": self.weight_cap,
            "entries": [[h, w, d] for (h, w), d in sorted(self.entries.items())],
        }, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        """The table to_json wrote.  Raises ValueError unless both caps and
        every h, w and dimension are ints (a JSON true or 1.0 is not), each
        entry is a dimension >= 0 inside the caps, and no (h, w) repeats."""
        data = json.loads(text)
        caps = [data["deg_cap"], data["weight_cap"]]
        if type(caps[0]) is not int or type(caps[1]) is not int:
            raise ValueError("caps %r are not ints" % (caps,))
        t = cls(*caps)
        seen = set()
        for h, w, d in data["entries"]:
            if not all(type(x) is int for x in (h, w, d)) \
                    or (h, w) in seen or not (0 <= h <= t.deg_cap
                                              and 0 <= w <= t.weight_cap):
                raise ValueError("entry %r is not an int dimension inside "
                                 "the caps, or repeats a position"
                                 % ([h, w, d],))
            seen.add((h, w))
            t.set(h, w, d)
        return t

    def to_csv(self):
        """CSV with rows = hdeg, columns = weight."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["hdeg"] + list(range(self.weight_cap + 1)))
        for h in range(self.deg_cap + 1):
            writer.writerow([h] + [self.get(h, w)
                                   for w in range(self.weight_cap + 1)])
        return buf.getvalue()

    def render(self):
        """Human-readable table with per-degree totals."""
        lines = []
        widths = max(2, len(str(self.weight_cap)))
        header = "h\\w " + " ".join(str(w).rjust(widths)
                                    for w in range(self.weight_cap + 1))
        lines.append(header + "  total")
        for h in range(self.deg_cap + 1):
            row = " ".join(
                (str(self.get(h, w)) if self.get(h, w) else ".").rjust(widths)
                for w in range(self.weight_cap + 1))
            lines.append("%-3d %s  %5d" % (h, row, self.degree_total(h)))
        return "\n".join(lines)
