"""The JSON text of the reports, that of json.dumps(report, indent=2),
written in one pass: json.dumps(report, indent=2, cls=ReportEncoder).

write is a plain recursive function over dict, list and tuple, str, int,
float, bool and None that appends to one list of chunks: each scalar with
the separator and key before it, and each list of scalars in one join.
"""

import json
from json.encoder import encode_basestring_ascii as _json_string

_INFINITY = float("inf")


def _float_text(value):
    # as json writes a float: its repr, or NaN, Infinity or -Infinity
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)


# the JSON text of a scalar, by its exact type
_SCALAR_TEXT = {
    str: _json_string,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def write(value, out, pad, head=""):
    """Append to out head and then the text that json.dumps(value, indent=2)
    writes for value, its lines after the first indented by pad, a newline
    and spaces.  Keys must be str, and scalars of exactly the types above:
    anything else is a TypeError."""
    text = _SCALAR_TEXT.get(type(value))
    if text is not None:
        out.append(head + text(value))
    elif isinstance(value, dict):
        if not value:
            out.append(head + "{}")
            return
        inner = pad + "  "
        head += "{" + inner
        for key, item in value.items():  # _json_string: TypeError on a key not a str
            text = _SCALAR_TEXT.get(type(item))
            if text is None:
                write(item, out, inner, f"{head}{_json_string(key)}: ")
            else:
                out.append(f"{head}{_json_string(key)}: {text(item)}")
            head = "," + inner
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append(head + "[]")
            return
        inner = pad + "  "
        try:  # a list of scalars is one chunk
            texts = [_SCALAR_TEXT[type(item)](item) for item in value]
        except KeyError:
            head += "[" + inner
            for item in value:
                write(item, out, inner, head)
                head = "," + inner
            out.append(pad + "]")
        else:
            out.append(f"{head}[{inner}{(',' + inner).join(texts)}{pad}]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


class ReportEncoder(json.JSONEncoder):
    """The encoder of every JSON report, for json.dumps(report, indent=2,
    cls=ReportEncoder): the text of json.dumps(report, indent=2), written
    by write into one list of chunks that is joined once."""

    def encode(self, o):
        out = []
        write(o, out, "\n")
        return "".join(out)
