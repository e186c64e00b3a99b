// Package wire is a miniature of the real wire package for analyzer tests:
// a Kind type and codec functions for the wirekinduse fixture to misuse.
package wire

type Kind uint8

const (
	KindA Kind = 1
	KindB Kind = 2
)

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
