package minipy

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func run(t *testing.T, src string) *Result {
	t.Helper()
	res, err := Run(src, 0)
	if err != nil {
		t.Fatalf("Run failed: %v", err)
	}
	return res
}

func mustFail(t *testing.T, src string) error {
	t.Helper()
	_, err := Run(src, 0)
	if err == nil {
		t.Fatalf("program unexpectedly succeeded:\n%s", src)
	}
	return err
}

func TestArithmetic(t *testing.T) {
	cases := map[string]string{
		"print(1 + 2 * 3)":   "7",
		"print((1 + 2) * 3)": "9",
		"print(7 // 2)":      "3",
		"print(-7 // 2)":     "-4", // Python floor division
		"print(7 % 3)":       "1",
		"print(-7 % 3)":      "2", // Python modulo sign
		"print(2 ** 10)":     "1024",
		"print(7 / 2)":       "3.5",
		"print(1.5 + 2.5)":   "4.0",
		"print(-3)":          "-3",
		"print(2 ** -1)":     "0.5",
		"print(10 - 3 - 2)":  "5",   // left associativity
		"print(2 ** 3 ** 2)": "512", // right associativity
	}
	for src, want := range cases {
		res := run(t, src)
		if got := strings.TrimSpace(res.Output); got != want {
			t.Errorf("%s → %q, want %q", src, got, want)
		}
	}
}

func TestComparisonAndLogic(t *testing.T) {
	cases := map[string]string{
		"print(1 < 2)":            "True",
		"print(2 <= 1)":           "False",
		"print(1 == 1.0)":         "True",
		"print('a' < 'b')":        "True",
		"print(not True)":         "False",
		"print(True and False)":   "False",
		"print(False or True)":    "True",
		"print(1 != 2)":           "True",
		"print([1, 2] == [1, 2])": "True",
		"print([1] == [2])":       "False",
	}
	for src, want := range cases {
		res := run(t, src)
		if got := strings.TrimSpace(res.Output); got != want {
			t.Errorf("%s → %q, want %q", src, got, want)
		}
	}
}

func TestShortCircuit(t *testing.T) {
	// The RHS would raise; short-circuiting must avoid it.
	res := run(t, "print(False and 1 / 0)")
	if strings.TrimSpace(res.Output) != "False" {
		t.Fatalf("and short-circuit: %q", res.Output)
	}
	res = run(t, "print(True or 1 / 0)")
	if strings.TrimSpace(res.Output) != "True" {
		t.Fatalf("or short-circuit: %q", res.Output)
	}
}

func TestVariablesAndAugAssign(t *testing.T) {
	src := `
x = 10
x += 5
x *= 2
x -= 6
x /= 4
print(x)
`
	res := run(t, src)
	if strings.TrimSpace(res.Output) != "6.0" {
		t.Fatalf("aug assign chain: %q", res.Output)
	}
}

func TestWhileLoop(t *testing.T) {
	src := `
total = 0
i = 1
while i <= 100:
    total += i
    i += 1
print(total)
`
	res := run(t, src)
	if strings.TrimSpace(res.Output) != "5050" {
		t.Fatalf("while sum: %q", res.Output)
	}
}

func TestForRangeAndBreakContinue(t *testing.T) {
	src := `
evens = 0
for i in range(10):
    if i % 2 == 1:
        continue
    if i == 8:
        break
    evens += 1
print(evens)
`
	res := run(t, src)
	if strings.TrimSpace(res.Output) != "4" {
		t.Fatalf("for/break/continue: %q", res.Output)
	}
}

func TestRangeVariants(t *testing.T) {
	cases := map[string]string{
		"print(range(3))":         "[0, 1, 2]",
		"print(range(1, 4))":      "[1, 2, 3]",
		"print(range(0, 10, 3))":  "[0, 3, 6, 9]",
		"print(range(5, 0, -2))":  "[5, 3, 1]",
		"print(len(range(1000)))": "1000",
	}
	for src, want := range cases {
		res := run(t, src)
		if got := strings.TrimSpace(res.Output); got != want {
			t.Errorf("%s → %q, want %q", src, got, want)
		}
	}
}

func TestLists(t *testing.T) {
	src := `
xs = [1, 2, 3]
xs[0] = 10
xs = xs + [4]
print(xs)
print(xs[-1])
print(len(xs))
print([1] + [2, 3])
`
	res := run(t, src)
	want := "[10, 2, 3, 4]\n4\n4\n[1, 2, 3]\n"
	if res.Output != want {
		t.Fatalf("lists:\n%q\nwant\n%q", res.Output, want)
	}
}

func TestStrings(t *testing.T) {
	src := `
s = 'abc' + "def"
print(s)
print(s[0])
print(s[-1])
print('ab' * 3)
print(len(s))
`
	res := run(t, src)
	want := "abcdef\na\nf\nababab\n6\n"
	if res.Output != want {
		t.Fatalf("strings:\n%q", res.Output)
	}
}

func TestFunctionsAndRecursion(t *testing.T) {
	src := `
def fib(n):
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)
print(fib(15))
`
	res := run(t, src)
	if strings.TrimSpace(res.Output) != "610" {
		t.Fatalf("fib: %q", res.Output)
	}
}

func TestFunctionLocalScope(t *testing.T) {
	src := `
x = 1
def f():
    x = 99
    return x
y = f()
print(x, y)
`
	res := run(t, src)
	if strings.TrimSpace(res.Output) != "1 99" {
		t.Fatalf("scoping: %q", res.Output)
	}
}

func TestGlobalsReadableInFunctions(t *testing.T) {
	src := `
base = 100
def f(n):
    return base + n
print(f(1))
`
	res := run(t, src)
	if strings.TrimSpace(res.Output) != "101" {
		t.Fatalf("global read: %q", res.Output)
	}
}

func TestApproxEProgram(t *testing.T) {
	res := run(t, ApproxEProgram)
	v, ok := res.Globals["result"].(float64)
	if !ok {
		t.Fatalf("result global missing: %v", res.Globals["result"])
	}
	if math.Abs(v-math.E) > 1e-9 {
		t.Fatalf("approx_e(20) = %v, want ≈%v", v, math.E)
	}
	if !strings.HasPrefix(strings.TrimSpace(res.Output), "2.718281828") {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestIfElifElse(t *testing.T) {
	src := `
def sign(x):
    if x > 0:
        return 1
    elif x < 0:
        return -1
    else:
        return 0
print(sign(5), sign(-5), sign(0))
`
	res := run(t, src)
	if strings.TrimSpace(res.Output) != "1 -1 0" {
		t.Fatalf("if/elif/else: %q", res.Output)
	}
}

func TestNestedLoops(t *testing.T) {
	src := `
count = 0
for i in range(5):
    for j in range(5):
        if j > i:
            break
        count += 1
print(count)
`
	res := run(t, src)
	if strings.TrimSpace(res.Output) != "15" {
		t.Fatalf("nested loops: %q", res.Output)
	}
}

func TestFuelLimit(t *testing.T) {
	_, err := Run("while True:\n    pass\n", 10000)
	if !errors.Is(err, ErrFuel) {
		t.Fatalf("infinite loop: %v", err)
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []string{
		"print(1 / 0)",
		"print(1 % 0)",
		"print(undefined_name)",
		"print([1][5])",
		"print('a' + 1)",
		"print(len(3))",
		"xs = 3\nxs[0] = 1",
		"print(nosuchfn(1))",
		"def f(a, b):\n    return a\nprint(f(1))",
		"print(1 in 42)",
		"print(1 in 'abc')",
	}
	for _, src := range cases {
		err := mustFail(t, src)
		var rt *RuntimeError
		if !errors.As(err, &rt) {
			t.Errorf("%q: error %v is not a RuntimeError", src, err)
		}
	}
}

func TestSyntaxErrors(t *testing.T) {
	cases := []string{
		"def f(:\n    pass",
		"if True\n    pass",
		"x = ",
		"print('unterminated)",
		"x = 1.2.3",
		"while True:\npass", // missing indent
		"  x = 1",           // unexpected indent... leading space on first line
		"1 = x",
	}
	for _, src := range cases {
		err := mustFail(t, src)
		var se *SyntaxError
		if !errors.As(err, &se) {
			t.Errorf("%q: error %v is not a SyntaxError", src, err)
		}
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	src := `
# leading comment
x = 1  # trailing comment

y = '# not a comment'

print(x, y)
`
	res := run(t, src)
	if strings.TrimSpace(res.Output) != "1 # not a comment" {
		t.Fatalf("comments: %q", res.Output)
	}
}

func TestReprFormats(t *testing.T) {
	cases := map[string]string{
		"print(None)":        "None",
		"print(True, False)": "True False",
		"print(2.0)":         "2.0",
		"print(0.1 + 0.2)":   "0.30000000000000004",
		"print(['a', 1])":    "['a', 1]",
	}
	for src, want := range cases {
		res := run(t, src)
		if got := strings.TrimSpace(res.Output); got != want {
			t.Errorf("%s → %q, want %q", src, got, want)
		}
	}
}

func TestTruthiness(t *testing.T) {
	src := `
vals = 0
if 0:
    vals += 1
if 1:
    vals += 10
if '':
    vals += 100
if 'x':
    vals += 1000
if []:
    vals += 10000
if [0]:
    vals += 100000
if None:
    vals += 1000000
print(vals)
`
	res := run(t, src)
	if strings.TrimSpace(res.Output) != "101010" {
		t.Fatalf("truthiness: %q", res.Output)
	}
}

func TestStepsCounted(t *testing.T) {
	res := run(t, "x = 1\n")
	if res.Steps == 0 {
		t.Fatal("no steps counted")
	}
	res2 := run(t, "for i in range(1000):\n    x = i\n")
	if res2.Steps <= res.Steps {
		t.Fatal("bigger program did not cost more steps")
	}
}

func TestDeterministic(t *testing.T) {
	a := run(t, ApproxEProgram)
	b := run(t, ApproxEProgram)
	if a.Output != b.Output || a.Steps != b.Steps {
		t.Fatal("runs are not deterministic")
	}
}

func TestMembershipOperators(t *testing.T) {
	cases := map[string]string{
		"print(2 in [1, 2, 3])":     "True",
		"print(9 in [1, 2, 3])":     "False",
		"print(9 not in [1, 2, 3])": "True",
		"print('ell' in 'hello')":   "True",
		"print('z' in 'hello')":     "False",
		"print(1.0 in [1, 2])":      "True", // numeric equality
	}
	for src, want := range cases {
		res := run(t, src)
		if got := strings.TrimSpace(res.Output); got != want {
			t.Errorf("%s → %q, want %q", src, got, want)
		}
	}
}

// TestSubsetContract pins the language's edges: dict literals are not
// part of it and fail to parse, the library builtins beyond print,
// range and len are undefined names, and what the shipped programs use
// keeps working.
func TestSubsetContract(t *testing.T) {
	for _, src := range []string{"d = {}", "d = {'a': 1}"} {
		var se *SyntaxError
		if err := mustFail(t, src); !errors.As(err, &se) {
			t.Errorf("%q: error %v is not a SyntaxError", src, err)
		}
	}
	for _, name := range []string{"abs", "min", "max", "sum", "int", "float", "str",
		"keys", "values", "split", "join", "upper", "lower", "find", "strip", "sorted", "append"} {
		src := "print(" + name + "([1]))"
		var rt *RuntimeError
		err := mustFail(t, src)
		if !errors.As(err, &rt) || !strings.Contains(rt.Msg, "is not defined") {
			t.Errorf("%q: error %v is not a RuntimeError naming an undefined name", src, err)
		}
	}
	cases := map[string]string{
		"print(len([1, 2]), len('abc'))":   "2 3",
		"print(2 in [1, 2], 3 in [1, 2])":  "True False",
		"print('b' in 'abc', 'z' in 'ab')": "True False",
	}
	for src, want := range cases {
		if got := strings.TrimSpace(run(t, src).Output); got != want {
			t.Errorf("%s → %q, want %q", src, got, want)
		}
	}
}
