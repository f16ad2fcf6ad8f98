#!/usr/bin/env python3
"""Validates the observability artifacts Aerie processes write.

    tools/validate.py trace [--require-cross-layer] trace.json
    tools/validate.py profile [--folded F] [--json J] [--min-samples N]
    tools/validate.py telemetry [--min-processes N] [--min-layers N]
        [--require-logical-writes] [--require-lock-wait] [--forbid-drops]
        top.json

trace      Chrome trace-event / Perfetto JSON from obs::DumpTraceJson
           (AERIE_TRACE_FILE): a top-level object with a "traceEvents" list
           whose entries carry the fields their phase requires ("X" needs
           ts+dur, "B"/"i" need ts, "M" is metadata). --require-cross-layer
           asserts that some trace_id is shared by a client span
           (pxfs.*/flatfs.*) and a trusted-side span (tfs.*/lockservice.*),
           i.e. the trace context really crossed the RPC boundary.
profile    sampling-profiler artifacts (src/obs/profiler.h). --folded: every
           line is `layer;span[;frame...] <count>` (flamegraph.pl collapsed
           format) with a positive count, no empty component, no duplicate
           stack, and lines in the exporter's sorted order. --json: conforms
           to tools/profile_schema.json and its stack counts do not exceed
           its samples. --min-samples N: each artifact recorded >= N samples
           (a silently empty profile would otherwise pass).
telemetry  an aerie_top --json document, against tools/telemetry_schema.json.
           --min-processes / --min-layers: at least N live processes / layer
           rows. --require-logical-writes: write_amp.logical_bytes > 0.
           --require-lock-wait: some layer's lock_wait_ns > 0 or
           locks.wait_latency_us.count > 0. --forbid-drops: dropped.warning
           is false (the segment had room for every entry).

The schema checker is a dependency-free subset of JSON Schema, just what the
two schemas use: type (string or list), required, properties,
additionalProperties (bool or schema), items, minItems, minProperties,
minimum, enum, and $ref into #/$defs. Stdlib only, so ctest and CI run it
without installed packages. Exits 0 when the artifact conforms, 1 with
per-path errors otherwise.
"""

import argparse
import json
import os
import re
import sys

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))

TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


class Validator:
    def __init__(self, root_schema):
        self.root = root_schema
        self.errors = []

    def fail(self, path, message):
        self.errors.append("%s: %s" % (path or "$", message))

    def resolve(self, schema):
        while isinstance(schema, dict) and "$ref" in schema:
            ref = schema["$ref"]
            if not ref.startswith("#/"):
                raise ValueError("unsupported $ref: %s" % ref)
            node = self.root
            for part in ref[2:].split("/"):
                node = node[part]
            schema = node
        return schema

    def check(self, value, schema, path):
        schema = self.resolve(schema)
        if schema is True:
            return
        if schema is False:
            self.fail(path, "no value allowed here")
            return

        if "enum" in schema:
            if value not in schema["enum"]:
                self.fail(path, "value %r not in enum %r" %
                          (value, schema["enum"]))
                return

        if "type" in schema:
            types = schema["type"]
            if isinstance(types, str):
                types = [types]
            if not any(TYPE_CHECKS[t](value) for t in types):
                self.fail(path, "expected type %s, got %s" %
                          ("/".join(types), type(value).__name__))
                return

        if isinstance(value, (int, float)) and not isinstance(value, bool):
            if "minimum" in schema and value < schema["minimum"]:
                self.fail(path, "value %r below minimum %r" %
                          (value, schema["minimum"]))

        if isinstance(value, dict):
            self.check_object(value, schema, path)
        elif isinstance(value, list):
            self.check_array(value, schema, path)

    def check_object(self, value, schema, path):
        for key in schema.get("required", []):
            if key not in value:
                self.fail(path, "missing required key %r" % key)
        if "minProperties" in schema and len(value) < schema["minProperties"]:
            self.fail(path, "expected at least %d properties, got %d" %
                      (schema["minProperties"], len(value)))
        props = schema.get("properties", {})
        additional = schema.get("additionalProperties", True)
        for key, item in value.items():
            child = "%s.%s" % (path, key) if path else key
            if key in props:
                self.check(item, props[key], child)
            elif additional is False:
                self.fail(path, "unexpected key %r" % key)
            elif additional is not True:
                self.check(item, additional, child)

    def check_array(self, value, schema, path):
        if "minItems" in schema and len(value) < schema["minItems"]:
            self.fail(path, "expected at least %d items, got %d" %
                      (schema["minItems"], len(value)))
        if "items" in schema:
            for i, item in enumerate(value):
                self.check(item, schema["items"], "%s[%d]" % (path, i))


def load_json(path, errors):
    """The parsed document, or None with the reason appended to errors."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except OSError as e:
        errors.append("%s: cannot read: %s" % (path, e))
    except json.JSONDecodeError as e:
        errors.append("%s: invalid JSON: %s" % (path, e))
    return None


def schema_errors(doc, schema_name):
    with open(os.path.join(TOOLS_DIR, schema_name)) as f:
        schema = json.load(f)
    validator = Validator(schema)
    validator.check(doc, schema, "")
    return validator.errors


# --- trace -------------------------------------------------------------------

CLIENT_LAYERS = {"pxfs", "flatfs"}
TRUSTED_LAYERS = {"tfs", "lockservice"}


def check_trace(args, errors):
    doc = load_json(args.trace_file, errors)
    if doc is None:
        return ""
    if not isinstance(doc, dict) or not isinstance(
            doc.get("traceEvents"), list):
        errors.append("top level must be an object with a traceEvents list")
        return ""
    events = doc["traceEvents"]
    spans = 0
    trace_layers = {}  # trace_id -> layers that recorded a span in it
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            errors.append("event %d is not an object" % i)
            return ""
        ph = ev.get("ph")
        if ph not in ("X", "B", "E", "i", "I", "M"):
            errors.append("event %d has unknown phase %r" % (i, ph))
            return ""
        if "name" not in ev or "pid" not in ev:
            errors.append("event %d missing name/pid" % i)
            return ""
        if ph == "M":
            continue
        if "ts" not in ev or "tid" not in ev:
            errors.append("event %d (%s) missing ts/tid" % (i, ev["name"]))
            return ""
        if ph == "X":
            if "dur" not in ev:
                errors.append("event %d (%s) is X without dur"
                              % (i, ev["name"]))
                return ""
            spans += 1
        trace_id = ev.get("args", {}).get("trace_id", "0")
        if ph in ("X", "B") and trace_id != "0":
            trace_layers.setdefault(trace_id, set()).add(
                ev["name"].split(".", 1)[0])

    summary = "%d events, %d spans, %d traces" % (
        len(events), spans, len(trace_layers))
    if args.require_cross_layer:
        if spans == 0:
            errors.append("no completed spans in trace")
            return ""
        stitched = [t for t, layers in trace_layers.items()
                    if layers & CLIENT_LAYERS and layers & TRUSTED_LAYERS]
        if not stitched:
            errors.append(
                "no trace_id is shared between a client span (%s) and a "
                "trusted-side span (%s); traces seen: %d" % (
                    sorted(CLIENT_LAYERS), sorted(TRUSTED_LAYERS),
                    len(trace_layers)))
            return ""
        summary += ", %d cross-layer (example trace_id=%s)" % (
            len(stitched), stitched[0])
    return summary


# --- profile -----------------------------------------------------------------

# layer;span[;frame...] <count>. The exporter rewrites ';' and ' ' inside
# symbols, so the split is unambiguous.
FOLDED_LINE = re.compile(r"^([^ ;]+(?:;[^ ;]+)+) (\d+)$")


def check_folded(path, errors):
    """Returns the total sample count across all folded lines."""
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError as e:
        errors.append("%s: cannot read: %s" % (path, e))
        return 0
    total = 0
    stacks = []
    for i, line in enumerate(lines, 1):
        m = FOLDED_LINE.match(line)
        if not m:
            errors.append("%s:%d: not `layer;span[;frame...] <count>`: %r"
                          % (path, i, line[:120]))
            continue
        count = int(m.group(2))
        if count < 1:
            errors.append("%s:%d: count must be >= 1" % (path, i))
        total += count
        stacks.append(m.group(1))
    # The exporter sorts element-wise by (layer, span, frames...), which is
    # not the order of the joined lines (';' is not the lowest byte).
    if stacks != sorted(stacks, key=lambda s: s.split(";")):
        errors.append("%s: stacks are not sorted (exporter sorts for "
                      "determinism; unsorted output means corruption)"
                      % path)
    if len(stacks) != len(set(stacks)):
        errors.append("%s: duplicate folded stacks (aggregation failed to "
                      "merge identical keys)" % path)
    return total


def check_profile_json(path, errors):
    """Returns the document's sample count."""
    doc = load_json(path, errors)
    if doc is None:
        return 0
    errors.extend("%s: %s" % (path, e)
                  for e in schema_errors(doc, "profile_schema.json"))
    # Stacks only cover spanned samples, so they cannot exceed the total.
    stack_total = sum(s.get("count", 0) for s in doc.get("stacks", []))
    if stack_total > doc.get("samples", 0):
        errors.append("%s: stack counts sum to %d > samples %d"
                      % (path, stack_total, doc.get("samples", 0)))
    return doc.get("samples", 0)


def check_profile(args, errors):
    if not args.folded and not args.json_path:
        errors.append("nothing to validate: pass --folded and/or --json")
        return ""
    parts = []
    for path, checker, what in (
            (args.folded, check_folded, "folded samples"),
            (args.json_path, check_profile_json, "samples")):
        if not path:
            continue
        total = checker(path, errors)
        if total < args.min_samples:
            errors.append("%s: %d %s, expected >= %d"
                          % (path, total, what, args.min_samples))
        parts.append("%s (%d %s)" % (path, total, what))
    return ", ".join(parts)


# --- telemetry ---------------------------------------------------------------

def check_telemetry(args, errors):
    doc = load_json(args.document, errors)
    if doc is None:
        return ""
    errors.extend(schema_errors(doc, "telemetry_schema.json"))
    processes = doc.get("processes", [])
    layers = doc.get("layers", {})
    if len(processes) < args.min_processes:
        errors.append("$.processes: expected at least %d live process(es), "
                      "got %d" % (args.min_processes, len(processes)))
    if len(layers) < args.min_layers:
        errors.append("$.layers: expected at least %d layer row(s), got %d"
                      % (args.min_layers, len(layers)))
    if args.require_logical_writes:
        logical = doc.get("write_amp", {}).get("logical_bytes", 0)
        if logical <= 0:
            errors.append("$.write_amp.logical_bytes: expected > 0, got %r"
                          % logical)
    if args.require_lock_wait:
        layer_wait = sum(row.get("lock_wait_ns", 0)
                         for row in layers.values())
        hist_count = (doc.get("locks", {})
                      .get("wait_latency_us", {}).get("count", 0))
        if layer_wait <= 0 and hist_count <= 0:
            errors.append(
                "$.layers[*].lock_wait_ns / $.locks.wait_latency_us.count: "
                "expected nonzero lock-wait attribution, got 0 / 0")
    if args.forbid_drops and doc.get("dropped", {}).get("warning", False):
        errors.append("$.dropped: warning is true (%r entries, %r hists "
                      "dropped — telemetry incomplete)"
                      % (doc["dropped"].get("entries"),
                         doc["dropped"].get("hists")))
    return "%s (%d process(es), %d layer(s), %d rpc method(s), write amp " \
        "%.2fx)" % (args.document, len(processes), len(layers),
                    len(doc.get("rpc", {})),
                    doc.get("write_amp", {}).get("amplification", 0.0))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="kind", required=True)

    trace = sub.add_parser("trace")
    trace.add_argument("--require-cross-layer", action="store_true")
    trace.add_argument("trace_file")
    trace.set_defaults(check=check_trace)

    profile = sub.add_parser("profile")
    profile.add_argument("--folded", help="collapsed-stack artifact")
    profile.add_argument("--json", dest="json_path",
                         help="profile JSON artifact")
    profile.add_argument("--min-samples", type=int, default=0)
    profile.set_defaults(check=check_profile)

    telemetry = sub.add_parser("telemetry")
    telemetry.add_argument("document", help="aerie_top --json output file")
    telemetry.add_argument("--min-processes", type=int, default=0)
    telemetry.add_argument("--min-layers", type=int, default=0)
    telemetry.add_argument("--require-logical-writes", action="store_true")
    telemetry.add_argument("--require-lock-wait", action="store_true")
    telemetry.add_argument("--forbid-drops", action="store_true")
    telemetry.set_defaults(check=check_telemetry)

    args = parser.parse_args(argv)
    errors = []
    summary = args.check(args, errors)
    if errors:
        print("validate %s: FAIL" % args.kind)
        for err in errors:
            print("  " + err)
        return 1
    print("validate %s: OK: %s" % (args.kind, summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
