"""Build the complete, loadable reference benchmark.

``build_benchmark`` assembles the kernel, draws deterministic ECG leads,
generates the sensing matrix and Huffman tables, lays everything out in
memory, and computes the *golden* expected outputs (bit-identical Python
models of CS and Huffman) that ``verify_result`` later checks against the
simulated machine's memory.

The Huffman code is trained on a *different* ECG seed than the evaluated
recording (as a deployed system would be), so the benchmark exercises the
data-dependent table lookups with realistic symbol statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.biosignal.compressed_sensing import SensingMatrix, cs_compress
from repro.biosignal.ecg import ECGGenerator
from repro.biosignal.huffman import HuffmanCode, HuffmanEncoder
from repro.biosignal.quantize import NUM_SYMBOLS
from repro.errors import ConfigurationError, SimulationError
from repro.kernels.memmap import BenchmarkMemoryMap
from repro.kernels.source import kernel_source
from repro.platform.multicore import Benchmark, SimulationResult
from repro.tamarisc.assembler import assemble
from repro.tamarisc.program import DataImage


@dataclass(frozen=True)
class BenchmarkSpec:
    """Parameters of one benchmark instance.

    The defaults are the paper's geometry (512-sample blocks, 50 %
    compression, 8 leads).  Tests use smaller blocks for speed; the
    kernel is identical, only loop bounds and buffer sizes change.
    """

    n_leads: int = 8
    n_samples: int = 512
    n_measurements: int = 256
    entries_per_column: int = 12
    huffman_private: bool = False
    seed: int = 2012
    training_seed: int = 1984

    def __post_init__(self):
        for name in ("n_leads", "n_samples", "n_measurements"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {value}")


@dataclass
class GoldenLead:
    """Expected outputs for one lead, from the bit-exact Python models."""

    samples: list[int]
    measurements: list[int]
    total_bits: int
    bitstream: list[int]


@dataclass
class BuiltBenchmark:
    """A loadable benchmark plus everything needed to verify it."""

    spec: BenchmarkSpec
    memmap: BenchmarkMemoryMap
    benchmark: Benchmark
    matrix: SensingMatrix
    code: HuffmanCode
    golden: list[GoldenLead] = field(default_factory=list)

    @property
    def program_bytes(self) -> int:
        return self.benchmark.program.size_bytes


def build_benchmark(spec: BenchmarkSpec | None = None,
                    **overrides) -> BuiltBenchmark:
    """Construct the CS + Huffman benchmark for the given spec."""
    if spec is None:
        spec = BenchmarkSpec(**overrides)
    elif overrides:
        raise ValueError("pass either a spec or keyword overrides")

    memmap = BenchmarkMemoryMap(
        n_samples=spec.n_samples,
        n_measurements=spec.n_measurements,
        entries_per_column=spec.entries_per_column,
        huffman_private=spec.huffman_private,
    )
    program = assemble(kernel_source(memmap), entry="start")

    matrix = SensingMatrix.generate(
        n_input=spec.n_samples,
        n_output=spec.n_measurements,
        entries_per_column=spec.entries_per_column,
        seed=spec.seed,
    )
    code = _train_huffman(spec, matrix)

    leads = ECGGenerator(n_leads=spec.n_leads,
                         seed=spec.seed).generate(spec.n_samples)
    encoder = HuffmanEncoder(code)
    golden = []
    data = DataImage()
    data.set_shared_block(memmap.cs_lut, matrix.lut)
    if spec.huffman_private:
        for core in range(spec.n_leads):
            data.set_private_block(core, memmap.code_lut_private,
                                   code.code_lut_words())
            data.set_private_block(core, memmap.len_lut_private,
                                   code.length_lut_words())
    else:
        data.set_shared_block(memmap.code_lut_shared, code.code_lut_words())
        data.set_shared_block(memmap.len_lut_shared, code.length_lut_words())
    for core in range(spec.n_leads):
        samples = [int(v) for v in leads[core]]
        data.set_private_block(core, memmap.x_base, samples)
        measurements = cs_compress(matrix, samples)
        total_bits, bitstream = encoder.encode_measurements(measurements)
        if len(bitstream) >= memmap.out_words:
            raise SimulationError(
                "bitstream overflows the output buffer; the Huffman code "
                "degenerated")
        golden.append(GoldenLead(samples=samples, measurements=measurements,
                                 total_bits=total_bits, bitstream=bitstream))

    name = "cs-huffman" + ("-privlut" if spec.huffman_private else "")
    benchmark = Benchmark(
        name=name,
        program=program,
        data=data,
        meta={
            "spec": spec,
            "memmap": memmap,
            "program_bytes": program.size_bytes,
            "read_only_bytes": memmap.read_only_bytes,
            "working_bytes": memmap.working_bytes,
        },
    )
    return BuiltBenchmark(spec=spec, memmap=memmap, benchmark=benchmark,
                          matrix=matrix, code=code, golden=golden)


def _train_huffman(spec: BenchmarkSpec,
                   matrix: SensingMatrix) -> HuffmanCode:
    """Train the Huffman tables on a held-out recording."""
    from repro.biosignal.quantize import quantize_measurement

    training = ECGGenerator(n_leads=spec.n_leads,
                            seed=spec.training_seed).generate(spec.n_samples)
    symbols = []
    for lead in range(spec.n_leads):
        measurements = cs_compress(matrix, [int(v) for v in training[lead]])
        symbols.extend(quantize_measurement(y) for y in measurements)
    return HuffmanCode.from_training_symbols(symbols, alphabet=NUM_SYMBOLS)


def verify_result(built: BuiltBenchmark, result: SimulationResult) -> None:
    """Compare the simulated machine's memory against the golden model.

    Raises :class:`~repro.errors.SimulationError` on the first mismatch;
    passing silently means every core produced a bit-identical compressed
    stream.
    """
    memmap = built.memmap
    system = result.system
    for core, golden in enumerate(built.golden):
        measured_y = system.read_logical_block(
            core, memmap.y_base, memmap.n_measurements)
        if measured_y != golden.measurements:
            raise SimulationError(
                f"core {core}: CS measurements diverge from golden model")
        bits = system.read_logical(core, memmap.out_base)
        if bits != golden.total_bits:
            raise SimulationError(
                f"core {core}: bit count {bits} != golden "
                f"{golden.total_bits}")
        stream = system.read_logical_block(
            core, memmap.out_base + 1, len(golden.bitstream))
        if stream != golden.bitstream:
            raise SimulationError(
                f"core {core}: packed bitstream diverges from golden model")


def build_block_series(spec: BenchmarkSpec | None = None,
                       n_blocks: int = 4, **overrides) -> list[BuiltBenchmark]:
    """A stream of consecutive blocks of one recording.

    All blocks share the sensing matrix, Huffman tables, program and
    memory map (as a deployed node would); only the per-lead input
    samples advance block by block.  Used by the streaming/duty-cycle
    studies in :mod:`repro.platform.streaming`.
    """
    if spec is None:
        spec = BenchmarkSpec(**overrides)
    elif overrides:
        raise ValueError("pass either a spec or keyword overrides")
    if n_blocks < 1:
        raise ConfigurationError(f"n_blocks must be >= 1, got {n_blocks}")

    first = build_benchmark(spec)
    recording = ECGGenerator(n_leads=spec.n_leads, seed=spec.seed) \
        .generate(spec.n_samples * n_blocks)
    encoder = HuffmanEncoder(first.code)
    series = []
    for block in range(n_blocks):
        window = recording[:, block * spec.n_samples:
                           (block + 1) * spec.n_samples]
        data = DataImage(shared=dict(first.benchmark.data.shared),
                         private={core: dict(image) for core, image
                                  in first.benchmark.data.private.items()})
        golden = []
        for core in range(spec.n_leads):
            samples = [int(v) for v in window[core]]
            data.private[core] = {
                addr: value for addr, value
                in first.benchmark.data.private[core].items()
                if not (first.memmap.x_base <= addr
                        < first.memmap.x_base + spec.n_samples)
            }
            data.set_private_block(core, first.memmap.x_base, samples)
            measurements = cs_compress(first.matrix, samples)
            total_bits, bitstream = encoder.encode_measurements(
                measurements)
            golden.append(GoldenLead(samples=samples,
                                     measurements=measurements,
                                     total_bits=total_bits,
                                     bitstream=bitstream))
        benchmark = Benchmark(
            name=f"{first.benchmark.name}-block{block}",
            program=first.benchmark.program,
            data=data,
            meta=dict(first.benchmark.meta, block=block),
        )
        series.append(BuiltBenchmark(
            spec=spec, memmap=first.memmap, benchmark=benchmark,
            matrix=first.matrix, code=first.code, golden=golden))
    return series
