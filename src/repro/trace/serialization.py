"""Trace (de)serialisation.

Synthetic traces are cheap to regenerate, but a downstream user comparing
steering policies wants to pin the *exact* uop stream to disk — both for
long-running sweeps (generate once, simulate many times) and to exchange
traces between machines.  Two formats:

* the *text* format (:func:`save_trace` / :func:`load_trace`) is
  line-delimited JSON — one header line with the trace metadata followed by
  one compact JSON array per uop — which keeps files diff-able and streams
  without loading everything into memory;
* the *binary* format (:func:`save_trace_binary` / :func:`load_trace_binary`)
  is a digest-checked pickle used by the engine's cross-job trace store
  (:mod:`repro.trace.store`), where load speed matters more than
  diff-ability: a worker re-hydrating a 30k-uop trace pays a single pickle
  load instead of re-running the generator.  A binary entry is
  ``<header JSON line>\\n<pickled Trace payload>``; the header records the
  format version and a SHA-256 digest of the payload, so corrupted or
  truncated files are detected and rejected on load.  Each uop pickles as
  its constructor fields only (``MicroOp.__reduce__``), so the facts a
  MicroOp derives at construction are re-derived on load, never stored.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import pickle
from pathlib import Path
from typing import IO, Iterator, Union

from repro.isa.opcodes import Opcode
from repro.isa.registers import ArchReg
from repro.isa.uop import MicroOp
from repro.trace.trace import Trace

#: Format identifier written to the header line.
FORMAT_VERSION = 1

#: Binary (pickle) format identifier; bump when the entry layout changes
#: (2: each MicroOp pickles positionally over its constructor fields).
BINARY_FORMAT_VERSION = 2

_PathLike = Union[str, Path]


def _uop_to_record(uop: MicroOp) -> list:
    """Encode one MicroOp as a compact JSON-serialisable list."""
    return [
        uop.uid,
        uop.pc,
        int(uop.opcode),
        [int(r) for r in uop.srcs],
        None if uop.dest is None else int(uop.dest),
        uop.imm,
        list(uop.src_values),
        uop.result_value,
        uop.flags_value,
        uop.mem_addr,
        uop.mem_size,
        int(uop.is_taken),
        [p for p in uop.producer_uids],
        uop.flags_producer_uid,
    ]


def _record_to_uop(record: list) -> MicroOp:
    """Decode one uop record produced by :func:`_uop_to_record`."""
    (uid, pc, opcode, srcs, dest, imm, src_values, result_value, flags_value,
     mem_addr, mem_size, is_taken, producer_uids, flags_producer_uid) = record
    return MicroOp(
        uid=uid,
        pc=pc,
        opcode=Opcode(opcode),
        srcs=tuple(ArchReg(r) for r in srcs),
        dest=None if dest is None else ArchReg(dest),
        imm=imm,
        src_values=tuple(src_values),
        result_value=result_value,
        flags_value=flags_value,
        mem_addr=mem_addr,
        mem_size=mem_size,
        is_taken=bool(is_taken),
        producer_uids=tuple(producer_uids),
        flags_producer_uid=flags_producer_uid,
    )


def _open(path: _PathLike, mode: str) -> IO:
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def save_trace(trace: Trace, path: _PathLike) -> Path:
    """Write a trace to ``path`` (gzip-compressed when the suffix is ``.gz``)."""
    path = Path(path)
    header = {
        "format": FORMAT_VERSION,
        "name": trace.name,
        "seed": trace.seed,
        "static_pcs": trace.static_pcs,
        "num_uops": len(trace),
    }
    with _open(path, "w") as handle:
        handle.write(json.dumps(header) + "\n")
        for uop in trace.uops:
            handle.write(json.dumps(_uop_to_record(uop), separators=(",", ":")) + "\n")
    return path


def iter_trace_records(path: _PathLike) -> Iterator[MicroOp]:
    """Stream uops from a saved trace without materialising the whole list."""
    with _open(path, "r") as handle:
        header = json.loads(handle.readline())
        if header.get("format") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported trace format {header.get('format')!r}; "
                f"expected {FORMAT_VERSION}")
        for line in handle:
            line = line.strip()
            if line:
                yield _record_to_uop(json.loads(line))


def save_trace_binary(trace: Trace, path: _PathLike) -> Path:
    """Write a trace as a digest-checked pickle (the trace store's format).

    The caller is responsible for atomicity (write to a temp file and
    ``os.replace``) when concurrent readers are possible; the on-disk bytes
    themselves are self-validating via the header digest.
    """
    path = Path(path)
    payload = pickle.dumps(trace, protocol=pickle.HIGHEST_PROTOCOL)
    header = json.dumps({
        "format": BINARY_FORMAT_VERSION,
        "name": trace.name,
        "seed": trace.seed,
        "num_uops": len(trace),
        "digest": hashlib.sha256(payload).hexdigest(),
    }, sort_keys=True).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(header)
        handle.write(b"\n")
        handle.write(payload)
    return path


def load_trace_binary(path: _PathLike) -> Trace:
    """Read a trace written by :func:`save_trace_binary`.

    Raises ``ValueError`` on format mismatch, digest mismatch, truncation or
    an un-unpicklable payload, so callers can treat any failure as a cache
    miss and regenerate.
    """
    blob = Path(path).read_bytes()
    newline = blob.find(b"\n")
    if newline < 0:
        raise ValueError(f"binary trace file {path} has no header line")
    try:
        header = json.loads(blob[:newline].decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ValueError(f"binary trace file {path} has a corrupt header") from exc
    if not isinstance(header, dict) or header.get("format") != BINARY_FORMAT_VERSION:
        raise ValueError(
            f"unsupported binary trace format {header.get('format')!r}; "
            f"expected {BINARY_FORMAT_VERSION}")
    payload = blob[newline + 1:]
    if header.get("digest") != hashlib.sha256(payload).hexdigest():
        raise ValueError(f"binary trace file {path} failed its digest check")
    try:
        trace = pickle.loads(payload)
    except Exception as exc:
        raise ValueError(f"binary trace file {path} failed to unpickle") from exc
    if not isinstance(trace, Trace):
        raise ValueError(f"binary trace file {path} does not contain a Trace")
    expected = header.get("num_uops")
    if expected is not None and expected != len(trace):
        raise ValueError(
            f"binary trace file {path} is truncated: header says {expected} "
            f"uops, found {len(trace)}")
    return trace


def load_trace(path: _PathLike) -> Trace:
    """Read a trace previously written by :func:`save_trace`."""
    path = Path(path)
    with _open(path, "r") as handle:
        header = json.loads(handle.readline())
    if header.get("format") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported trace format {header.get('format')!r}; expected {FORMAT_VERSION}")
    trace = Trace(name=header.get("name", path.stem), seed=header.get("seed"),
                  static_pcs=header.get("static_pcs", 0))
    trace.uops.extend(iter_trace_records(path))
    expected = header.get("num_uops")
    if expected is not None and expected != len(trace):
        raise ValueError(
            f"trace file {path} is truncated: header says {expected} uops, "
            f"found {len(trace)}")
    return trace
