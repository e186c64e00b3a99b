// Package wire is a miniature of the real wire package for analyzer tests:
// a Kind type with a String table, seeded with one constant missing from it.
package wire

type Kind uint8

const (
	KindA Kind = 1
	KindB Kind = 2
	KindC Kind = 3
	KindD Kind = 4 // want `wire kind KindD has no case in Kind.String`
)

func (k Kind) String() string {
	switch k {
	case KindA:
		return "A"
	case KindB:
		return "B"
	case KindC:
		return "C"
	default:
		return "?"
	}
}

// DecodeThing mimics a payload decoder returning an error.
func DecodeThing(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, errEmpty
	}
	return int(b[0]), nil
}

// EncodeThing mimics an encoder whose only result is the error.
func EncodeThing(v int) error {
	if v < 0 {
		return errEmpty
	}
	return nil
}

// DecodeLen has no error result; discarding it is not a finding.
func DecodeLen(b []byte) int { return len(b) }

type wireError string

func (e wireError) Error() string { return string(e) }

const errEmpty = wireError("empty")
