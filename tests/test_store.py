import ast
import re
from pathlib import Path

import pytest

import multicred
from multicred import store
from multicred.domain import DomainError, StateError


def test_json_is_parsed_only_in_store():
    """store.read_json is the one JSON parser: no other module of the
    package calls json.load or json.loads, or imports either by name."""
    calls = []
    for path in sorted(Path(multicred.__file__).parent.glob("*.py")):
        if path.name == "store.py":
            continue
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                    and isinstance(node.value, ast.Name) and node.value.id == "json"):
                calls.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.ImportFrom) and node.module == "json" and any(
                    alias.name in ("load", "loads") for alias in node.names):
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


def test_every_imported_name_is_used():
    """No module of the package imports a name it never uses; __init__.py,
    which imports to re-export, is exempt."""
    unused = []
    for path in sorted(Path(multicred.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text("utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno} {name}" for name in names
                       if name not in used]
    assert unused == []


def test_every_defined_name_is_used():
    """Every name a module of the package defines at top level is loaded
    somewhere in the package, by name or as an attribute, or is exported
    in multicred.__all__; dunder names are exempt."""
    trees = {path.name: ast.parse(path.read_text("utf-8"))
             for path in sorted(Path(multicred.__file__).parent.glob("*.py"))}
    loaded = set(multicred.__all__)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unused += [f"{module}:{node.lineno} {name}" for name in names
                       if name not in loaded and not (name.startswith("__")
                                                      and name.endswith("__"))]
    assert unused == []


def field(doc, name, kind, **rules):
    return store.field(doc, name, kind, "doc", StateError, **rules)


class TestField:
    @pytest.mark.parametrize("value", [True, False, 1.0, 3.7, "3", None, [1], {"a": 1}])
    def test_int_accepts_only_json_integers(self, value):
        with pytest.raises(StateError, match=r"^doc field n is .*, expected an integer$"):
            field({"n": value}, "n", int)
        assert field({"n": 10**30}, "n", int) == 10**30

    @pytest.mark.parametrize("value", [True, "1.5", None, 1e400, -1e400, 10**400])
    def test_float_rejects_bool_text_null_and_non_finite(self, value):
        with pytest.raises(StateError, match="expected a finite number"):
            field({"x": value}, "x", float)

    def test_float_accepts_integers_as_floats(self):
        got = field({"x": 3}, "x", float)
        assert got == 3.0 and type(got) is float

    @pytest.mark.parametrize("value", [0, 1, "true", None])
    def test_bool_accepts_only_true_and_false(self, value):
        with pytest.raises(StateError, match="expected true or false"):
            field({"b": value}, "b", bool)
        assert field({"b": False}, "b", bool) is False

    def test_union_kinds_and_any_value(self):
        text_or_null = (str, type(None))
        assert field({"s": None}, "s", text_or_null) is None
        assert field({"s": "x"}, "s", text_or_null) == "x"
        with pytest.raises(StateError, match="is 0, expected a string or null$"):
            field({"s": 0}, "s", text_or_null)
        assert field({"s": [1.5]}, "s", object) == [1.5]

    def test_absent_field_takes_default_or_is_named(self):
        assert field({}, "a.b", int, default=7) == 7
        assert field({"a": {}}, "a.b", int, default=7) == 7
        with pytest.raises(StateError, match=r"^doc has no field a\.b$"):
            field({"a": {}}, "a.b", int)

    def test_container_of_another_type_is_named(self):
        with pytest.raises(StateError, match=r"^doc field a is \[\], expected a JSON object$"):
            field({"a": []}, "a.b", int, default=7)
        with pytest.raises(StateError, match=r"^doc field p\[2\] is null, expected"):
            store.field(None, "x", int, "doc", StateError, at="p[2].")

    def test_predicate_failure_names_requirement(self):
        rules = dict(valid=lambda v: v >= 1, requirement=">= 1")
        assert field({"n": 1}, "n", int, **rules) == 1
        with pytest.raises(StateError, match=r"^doc field n is 0, expected an integer >= 1$"):
            field({"n": 0}, "n", int, **rules)

    def test_long_value_shown_by_its_start(self):
        with pytest.raises(StateError) as err:
            field({"s": "x" * 100}, "s", str, valid=lambda s: len(s) < 10,
                  requirement="of at most 9 characters")
        assert str(err.value) == ('doc field s is "' + "x" * 59 + '... (102 characters of '
                                  'JSON), expected a string of at most 9 characters')

    def test_prefix_and_error_class(self):
        with pytest.raises(DomainError, match=r"^f\.json field \[3\]\.text is null, "):
            store.field({"text": None}, "text", str, "f.json", DomainError, at="[3].")
        with pytest.raises(DomainError, match=r"^f\.json has no field \[3\]\.text$"):
            store.field({}, "text", str, "f.json", DomainError, at="[3].")


class TestReadJson:
    @pytest.mark.parametrize("error", [DomainError, StateError])
    @pytest.mark.parametrize("content, problem", [
        (b"", "is not valid JSON: Expecting value at line 1 column 1 (byte offset 0)"),
        (b'{"\xc3\xa9": [1,', "is not valid JSON: Expecting value at line 1 column 10 "
                             "(byte offset 10)"),
        (b'{"a": "\xff"}', "is not UTF-8 text: invalid start byte at byte offset 7"),
        (b'{"a": 1, "b": {"c": 1, "c": 1}}', "repeats the key 'c' in one object"),
        (b'{"a": -Infinity}', "holds -Infinity, which is not a JSON number"),
        (b'{"a": ' + b"1" * 5000 + b"}", "is not valid JSON: Exceeds the limit"),
        (b"[" * 100_000 + b"]" * 100_000, "nests JSON arrays or objects too deeply"),
        (b"[]", "does not hold a JSON object"),
    ], ids=["empty", "truncated-after-non-ascii", "invalid-utf8", "repeated-key",
            "minus-infinity", "huge-integer", "deep", "array"])
    def test_fault_raises_the_given_error_naming_the_file(self, tmp_path, error,
                                                         content, problem):
        path = tmp_path / "f.json"
        path.write_bytes(content)
        with pytest.raises(error) as err:
            store.read_json(path, "test file", error)
        assert str(err.value).startswith(f"test file {path} {problem}")

    @pytest.mark.parametrize("text, named", [
        (r'{"a": "ab\ud800cd"}', r"\ud800"),
        (r'{"a": ["x", "ab\uDC00"]}', r"\udc00"),
        (r'{"ab\ude00\ud83d": 1}', r"\ude00"),
    ], ids=["lone-high", "lone-low-in-array", "reversed-pair-in-key"])
    def test_unpaired_surrogate_escape_named(self, tmp_path, text, named):
        path = tmp_path / "f.json"
        path.write_text(text, "ascii")
        with pytest.raises(DomainError) as err:
            store.read_json(path, "test file", DomainError)
        assert str(err.value) == f"test file {path} holds {named}, an unpaired UTF-16 " \
                                 f"surrogate escape"

    def test_paired_surrogates_and_escaped_backslashes_load(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(r'{"a": "\ud83d\ude00", "b": "\\ud800", "c": "\\\ud83d\ude00"}',
                        "ascii")
        assert store.read_json(path, "f", DomainError) == {
            "a": "\U0001f600", "b": "\\ud800", "c": "\\\U0001f600"}

    @pytest.mark.parametrize("text", ['{"a": "b"}', r'{"a": "b\n\"c"}', r'{"a": "\u00e9"}'],
                             ids=["no-backslash", "other-escapes", "no-surrogate-escape"])
    def test_strings_not_searched_without_a_surrogate_escape(self, tmp_path, monkeypatch,
                                                             text):
        monkeypatch.setattr(store.json, "dumps", lambda *a, **k: pytest.fail("searched"))
        path = tmp_path / "f.json"
        path.write_text(text, "ascii")
        assert store.read_json(path, "f", DomainError)["a"]

    def test_array_of_objects_shape(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_bytes(b'[{"a": 1}, {}]')
        assert store.read_json(path, "f", DomainError, list) == [{"a": 1}, {}]
        for content in (b'{"a": 1}', b'[{"a": 1}, 2]'):
            path.write_bytes(content)
            with pytest.raises(DomainError, match="does not hold a JSON array of objects"):
                store.read_json(path, "f", DomainError, list)


class TestReadCsv:
    def test_rows_come_with_their_last_line(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_bytes(b'a,b\r\n"x\ny",2\n3,4\n')
        assert list(store.read_csv(path, DomainError)) == [
            (1, ["a", "b"]), (3, ["x\ny", "2"]), (4, ["3", "4"])]

    def test_invalid_utf8_named_by_path_and_line(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_bytes(b"a,b\n" + b"1,2\n" * 5000 + b"x,\xff\n")
        with pytest.raises(DomainError, match=rf"^{re.escape(str(path))}:5002: not UTF-8 text: "
                                              rf"invalid start byte at byte offset 20006$"):
            list(store.read_csv(path, DomainError))
