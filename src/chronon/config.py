"""Run configuration: defaults <- config file <- command-line flags.

Config files are flat ``key = value`` text with ``#`` comments; each ``RunConfig`` field
after ``command`` is a key, named in kebab-case like its CLI flag.  Unknown keys are
rejected.  ``parse_argv`` reads the command line and ``read_config_file`` a config file,
each value through its key's one ``KEY_SPECS`` parser, so a flag and a config-file key
cannot parse differently.  ``CHAINS`` is the command table: ``parse_argv``'s commands,
the ``--help`` text, the CLI's steps and ``RunConfig.validate``'s per-step rules all
read it.

The one module that knows hbar, c and m: the layers compute in Compton units
(momenta in m c, lengths in hbar/(m c), times in hbar/(m c^2)), with the one
parameter a' = a m c/hbar, 1 when a is unset.  ``RunConfig.to_compton`` and
``RunConfig.to_user`` convert a value of a given dimension between the two: every
input, and of the results only the observables written, as every gate is judged in
Compton units.
"""

from __future__ import annotations

import math
import os
import re
import sys
from dataclasses import dataclass, fields

# command -> the steps it runs, in report order; each step is one cli runner.
_STEPS = ("verify-algebra", "snyder", "zitterbewegung", "averaging")
CHAINS = {**{step: (step,) for step in _STEPS}, "all": _STEPS}
PACKET_STEPS = {"zitterbewegung", "averaging"}  # they read the packet's <x>(t) series

# Exponents of (hbar, mass, c) in the Compton unit of each dimension.
MOMENTUM, LENGTH, TIME, FREQUENCY = (0, 1, 1), (1, -1, -1), (1, -1, -2), (-1, 1, 2)


def _product(x: float, *factors: tuple[float, int]) -> float:
    """x times base**power for each (base, power), from ``math.frexp`` mantissas and summed
    exponents: no intermediate leaves the float range (inf on overflow), and wherever plain
    arithmetic in the same order stays in range the bits are the same."""
    mantissa, exponent = math.frexp(x)
    for base, power in factors:
        m, e = math.frexp(base)
        for _ in range(abs(power)):
            mantissa = mantissa * m if power > 0 else mantissa / m
        exponent += e * power
    try:
        return math.ldexp(mantissa, exponent)
    except OverflowError:
        return math.copysign(math.inf, mantissa)


def _normal_quotient(x: float, n: int) -> bool:
    """x/n >= 2^-1022, the smallest normal float, compared in integers (inf as 1/0): n
    may be beyond the float range."""
    num, den = (1, 0) if x == math.inf else x.as_integer_ratio()
    return num << 1022 >= den * n


class ConfigError(ValueError):
    """Input that cannot run, found by ``validate`` or by the dynamics: exit status 2."""


@dataclass(frozen=True)
class RunConfig:
    command: str
    hbar: float = 1.0
    c: float = 1.0
    mass: float = 1.0
    a: float | None = None  # None -> Compton wavelength hbar/(m c)
    grid_n: int = 1024
    p_max: float = 20.0
    grid_n_2d: int = 256
    p_max_2d: float = 12.0
    p0: float = 0.0
    sigma_p: float = 0.1
    spinor_seed: tuple[complex, ...] = (1 + 0j, 0j, 1 + 0j, 0j)
    t_max: float = 50.0
    n_samples: int = 4096
    window: float | None = None  # extra averaging window; None -> canonical windows only
    output_dir: str = ""
    emit_plots: bool = True
    seed: int = 42

    def to_user(self, x: float, dim: tuple[int, int, int]) -> float:
        """x, given in Compton units of dimension ``dim``, in the user's units."""
        return _product(x, *zip((self.hbar, self.mass, self.c), dim))

    def to_compton(self, x: float, dim: tuple[int, int, int]) -> float:
        """x, given in the user's units of dimension ``dim``, in Compton units."""
        return self.to_user(x, tuple(-e for e in dim))

    @property
    def a_prime(self) -> float:
        """The fundamental length in Compton wavelengths, a m c/hbar; 1 when a is unset."""
        return 1.0 if self.a is None else self.to_compton(self.a, LENGTH)

    def validate(self) -> "RunConfig":
        steps = CHAINS[self.command]
        packet = not PACKET_STEPS.isdisjoint(steps)
        value = {key: getattr(self, attr) for key, (attr, _) in KEY_SPECS.items()}

        def given(keys: str) -> str:  # "key=value, ..." for each key named, once; floats in %g
            return ", ".join(f"{k}={value[k]:g}" if isinstance(value[k], float) else
                             f"{k}={value[k]}" for k in dict.fromkeys(keys.split()))

        def require(ok: bool, subject: str, rule: str, keys: str) -> None:
            if not ok:
                raise ConfigError(f"{subject} must be {rule}, got {given(keys)}")
        # One rule per key, in order; each rejection names its key and value.  The spectrum
        # of measure_oscillation takes at least 32 samples.
        least = 32 if "zitterbewegung" in steps else 2
        rules = [(key, "finite", math.isfinite(value[key]))
                 for key in _FLOAT_KEYS if value[key] is not None]
        rules += [("spinor-seed", "4 finite components", len(self.spinor_seed) == 4 and all(
            math.isfinite(v.real) and math.isfinite(v.imag) for v in self.spinor_seed)),
                  ("spinor-seed", "nonzero", any(self.spinor_seed))]  # a direction, any scale
        rules += [(key, "strictly positive", value[key] > 0) for key in
                  ("hbar", "c", "mass", "p-max", "p-max-2d", "sigma-p", "t-max", "window")
                  if value[key] is not None]
        rules += [(key, "a power of two >= 8", n >= 8 and not n & (n - 1))
                  for key, n in (("grid-n", self.grid_n), ("grid-n-2d", self.grid_n_2d))]
        rules += [("a", "nonnegative", self.a is None or self.a >= 0),
                  ("n-samples", f"at least {least}", self.n_samples >= least),
                  ("seed", "nonnegative", self.seed >= 0)]
        for key, rule, ok in rules:
            require(ok, key, rule, key)
        # Derived scales the commands form, each named with the keys it depends on.
        top, tiny = sys.float_info.max, sys.float_info.min
        a_keys = "a mass c hbar" if self.a is not None else "mass c"
        p, p_2d, sigma, p0 = (self.to_compton(x, MOMENTUM)
                              for x in (self.p_max, self.p_max_2d, self.sigma_p, self.p0))
        t = self.to_compton(self.t_max, TIME)
        checks = []
        if "verify-algebra" in steps or "snyder" in steps:  # the coefficient a'^2
            checks.append(("(a mass c/hbar)^2", a_keys, _product(1.0, (self.a_prime, 2)) < top))
        if "snyder" in steps or packet:
            # The witness e^(-p'^2/2) and mode energies square p', the wavenumbers divide by
            # its grid step 2 p'/n; a and <x> scale back.
            checks += [("p-max^2/(mass c)^2", "p-max mass c", p < math.sqrt(top)),
                       ("2 p-max/(grid-n mass c)", "p-max grid-n mass c",
                        _normal_quotient(2 * p, self.grid_n)),
                       ("hbar/(mass c)", "hbar mass c", tiny <= self.to_user(1.0, LENGTH) < top)]
        if "snyder" in steps:
            # The 2-D witness squares p_x'^2 + p_y'^2; x p f reaches (a' p')^2 p' at an edge.
            checks += [("2 p-max-2d^2/(mass c)^2", "p-max-2d mass c", p_2d < math.sqrt(top / 2)),
                       ("2 p-max-2d/(grid-n-2d mass c)", "p-max-2d grid-n-2d mass c",
                        _normal_quotient(2 * p_2d, self.grid_n_2d))]
            checks += [(f"(a {key}/hbar)^2 {key}/(mass c)", f"{key} {a_keys}",
                        _product(edge, (self.a_prime, 2), (edge, 2)) < top)
                       for key, edge in (("p-max", p), ("p-max-2d", p_2d))]
        if packet:
            # The envelope squares sigma-p', the trend fit the times t', which scale back
            # to user-unit times whose spacing must stay a normal float, so that the times
            # written stay exact and distinct.
            checks += [("sigma-p/(mass c)", "sigma-p mass c", math.sqrt(tiny) <= sigma),
                       ("t-max/(hbar/(mass c^2))", "t-max hbar mass c",
                        math.sqrt(tiny) <= t),
                       ("t-max/(n-samples - 1)", "t-max n-samples",
                        _normal_quotient(self.t_max, self.n_samples - 1)),
                       ("hbar/(mass c^2)", "hbar mass c", tiny <= self.to_user(1.0, TIME) < top)]
        for name, keys, ok in checks:
            if not ok:
                raise ConfigError(f"{name} is out of floating-point range at {given(keys)}")
        for key in ("grid-n", "grid-n-2d", "n-samples"):  # the most 64-byte spinor rows numpy sizes
            require(value[key] <= sys.maxsize // 64, key, f"at most {sys.maxsize // 64}", key)
        if not packet:
            return self
        # Imported here, not at the top: dirac_dynamics imports ConfigError from this module.
        from chronon import dirac_dynamics as dd
        # The packet's closed-form preconditions, on the Compton-unit values the layers see.
        # sigma-p' >= 2 dp' = 4 p'/grid-n (exact) leaves no aliasing at the dual Nyquist point.
        require(sigma >= math.ldexp(p, 3 - self.grid_n.bit_length()), "sigma-p",
                "at least 2 grid steps 2 p-max/grid-n", "sigma-p p-max grid-n")
        require(abs(p0) + 6 * sigma <= p, "|p0| + 6 sigma-p", "at most p-max", "p0 sigma-p p-max")
        # 2 samples per ZB period with a 4x margin; an int compares with any float exactly.
        n, in_units = self.n_samples, "t-max n-samples hbar mass c"
        require(n >= 8 * t / dd.PERIOD_WINDOW, "n-samples",
                "at least 8 t-max/(pi hbar/(mass c^2))", "n-samples t-max hbar mass c")
        if "averaging" not in steps:
            return self
        num, den = t.as_integer_ratio()
        dt = num / (den * (n - 1))  # the series' spacing as np.linspace forms it, for any n
        windows = [("the full-period window pi hbar/(mass c^2)", dd.PERIOD_WINDOW, in_units),
                   ("the Compton window hbar/(mass c^2)", dd.COMPTON_WINDOW, in_units)]
        if self.window is not None:
            windows.append(("window", self.to_compton(self.window, TIME), "window t-max n-samples"))
        for name, w, keys in windows:  # a window of more samples than a float holds is too long
            require(w >= 2 * dt and dt > 0 and w / dt < math.inf and dd.window_samples(dt, w) <= n,
                    name, "between 2 sample intervals and n-samples samples long", keys)
        return self


def _parse_bool(s: str) -> bool:
    if s.lower() in ("true", "1", "yes"):
        return True
    if s.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_seed_vector(s: str) -> tuple[complex, ...]:
    return tuple(complex(p.strip()) for p in s.split(","))


# key -> (attribute, parser): each RunConfig field after command, kebab-cased, parsed as
# the type of its default, except these (an unset optional key parses as a float).
_PARSERS = {bool: _parse_bool, tuple: _parse_seed_vector, type(None): float}
KEY_SPECS = {f.name.replace("_", "-"): (f.name, _PARSERS.get(type(f.default), type(f.default)))
             for f in fields(RunConfig)[1:]}
_FLOAT_KEYS = tuple(key for key, (_, parse) in KEY_SPECS.items() if parse is float)


class UsageError(ValueError):
    """A command line that names no command, an unknown one, or a flag that does not parse."""


# The long options: each key takes a value, help and the emit-plots pair take none.
_OPTIONS = ("help", "config", *KEY_SPECS, "no-emit-plots")
_NO_VALUE = ("help", "emit-plots", "no-emit-plots")


def _option(name: str) -> str | None:
    """The long option ``--name`` names: an exact option, else the one option it begins;
    None if it begins none."""
    if name in _OPTIONS:
        return name
    matches = [option for option in _OPTIONS if option.startswith(name)]
    if len(matches) > 1:
        raise UsageError(f"ambiguous option: --{name} could match "
                         + ", ".join(f"--{option}" for option in matches))
    return matches[0] if matches else None


def parse_argv(argv: list[str]) -> tuple[str | None, str | None, dict[str, object]]:
    """(command, --config path or None, {attribute: value} of the key flags given) from argv.

    The command may stand anywhere; after ``--`` every token is a command.  A flag is
    ``--key value`` or ``--key=value``, the last repeat winning, or any unique prefix of
    a key; a value may start with ``-`` (``--p0 -0.5``) but not with ``--``.  Each value
    goes through its key's ``KEY_SPECS`` parser, as in ``read_config_file``.  The tokens
    are read in order, as argparse reads them: ``-h``/``--help`` returns command None,
    which asks for ``usage()``, and a bad token raises ``UsageError``, except that unknown
    options and a second command are named only at the end.
    """
    command, path, values, literal, extras = None, None, {}, False, []
    tokens = iter(argv)
    for token in tokens:
        if token == "-h" and not literal:
            token = "--help"
        if literal or not token.startswith("--"):
            if command is not None:
                extras.append(token)
            elif token in CHAINS:
                command = token
            else:
                raise UsageError(f"argument command: invalid choice: {token!r} (choose from "
                                 + ", ".join(map(repr, CHAINS)) + ")")
            continue
        if token == "--":
            literal = True
            continue
        name, eq, text = token[2:].partition("=")
        option = _option(name)
        if option is None:
            extras.append(token)
            continue
        if option in _NO_VALUE:
            if eq:
                raise UsageError(f"argument --{option}: ignored explicit argument {text!r}")
            if option == "help":
                return None, None, {}
            values["emit_plots"] = option == "emit-plots"
            continue
        if not eq:
            text = next(tokens, "--")  # no token left is a missing value too
            if text.startswith("--"):
                raise UsageError(f"argument --{option}: expected one argument")
        if option == "config":
            path = text
            continue
        attr, parse = KEY_SPECS[option]
        try:
            values[attr] = parse(text)
        except ValueError as exc:
            raise UsageError(f"argument --{option}: bad value {text!r}: {exc}") from None
    if command is None:
        raise UsageError("the following arguments are required: command")
    if extras:
        raise UsageError("unrecognized arguments: " + " ".join(extras))
    return command, path, values


def usage() -> str:
    """The ``--help`` text: each command with its steps, and each key with its default."""
    lines = ["usage: chronon COMMAND [--config PATH] [--KEY VALUE | --KEY=VALUE ...]", "",
             "Quantized-spacetime algebra checks and Dirac wave-packet experiments.",
             "Flags may come before or after the command, and any unique prefix of a key",
             "names it.  A flag beats the config file, which beats the default.", "",
             "commands (steps, in report order):"]
    lines += [f"  {command:<18}{' '.join(steps)}" for command, steps in CHAINS.items()]
    lines += ["", "options:", f"  {'-h, --help':<22}print this text and exit",
              f"  {'--config PATH':<22}flat 'key = value' file of the keys below"]
    for key, (attr, _) in KEY_SPECS.items():  # a dataclass default is a class attribute
        flag = "--[no-]emit-plots" if key == "emit-plots" else f"--{key} VALUE"
        lines.append(f"  {flag:<22}default {_value_text(getattr(RunConfig, attr)) or 'unset'}")
    lines += ["", "An unset a is the Compton wavelength hbar/(mass c), an unset window adds no",
              "window, and an unset output-dir is $CHRONON_OUTPUT_DIR, else out.", "",
              "exit status: 0 all checks pass, 1 a check failed, 2 usage or config error,",
              "3 I/O error, 4 a defect in chronon (with its traceback)."]
    return "\n".join(lines) + "\n"


def read_config_file(path: str) -> dict[str, object]:
    values: dict[str, object] = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:  # a file that cannot be opened or read is a config error too
        raise ConfigError(str(exc)) from exc
    for lineno, raw in enumerate(lines, 1):
        line = re.split(r"(?<!\S)#", raw, maxsplit=1)[0].strip()  # comment: a # opening a word
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in KEY_SPECS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        attr, parse = KEY_SPECS[key]
        try:
            values[attr] = parse(val)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def resolve(command: str, file_values: dict[str, object],
            flag_values: dict[str, object]) -> RunConfig:
    """Defaults <- config file <- flags; an empty output-dir is $CHRONON_OUTPUT_DIR, else out."""
    values = {**file_values, **flag_values}
    values["output_dir"] = values.get("output_dir") or os.environ.get("CHRONON_OUTPUT_DIR", "out")
    return RunConfig(command=command, **values).validate()


def _value_text(value) -> str | None:
    """A key's value as its parser reads it back; None for an unset optional key."""
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return None if value is None else str(value)


def manifest_lines(cfg: RunConfig, outputs: list[str]) -> list[str]:
    # Comment lines keep the manifest loadable back through --config.
    lines = [f"# command = {cfg.command}"]
    for key, (attr, _) in KEY_SPECS.items():
        val = _value_text(getattr(cfg, attr))
        if val is None:
            continue  # unset optional key; omitted so the manifest reparses cleanly
        lines.append(f"{key} = {val}")
    lines.extend(f"# output: {name}" for name in outputs)
    return lines
