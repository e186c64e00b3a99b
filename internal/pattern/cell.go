package pattern

// Cell is the integer type of a row's values: int64 in Pattern, the form
// the API, the coordinator and tests use, and int32 in a station's resident
// store, where every cell of every resident lives (Definition 1's call
// counts and durations fit 31 bits with room to spare). Code that reads
// rows — a station's walk, its digest, the row codec, the store and its
// WAL — is written once over a Cell type parameter and instantiated at both.
type Cell interface{ ~int32 | ~int64 }

// Row is a pattern row of cells C: a Pattern, or a station's []int32 row.
type Row[C Cell] interface{ ~[]C }

// InRange reports whether every value of p fits an int32: the domain a
// cluster accepts, since every value lives in a station's int32 cell, and
// the test a station's row decoder applies. Accumulated values and sums are
// taken in int64 and never overflow a row of fewer than 2³² cells.
func (p Pattern) InRange() bool {
	for _, v := range p {
		if int64(int32(v)) != v {
			return false
		}
	}
	return true
}

// RowSum returns the sum of row's values in int64: Pattern.Sum for any row.
func RowSum[R Row[C], C Cell](row R) int64 {
	var s int64
	for _, v := range row {
		s += int64(v)
	}
	return s
}

// AllZero reports whether every value of row is zero: a person with no
// measurable activity, whose row stations and placement drop. A row whose
// non-zero values cancel out is not all-zero.
func AllZero[R Row[C], C Cell](row R) bool {
	for _, v := range row {
		if v != 0 {
			return false
		}
	}
	return true
}

// AppendCells appends p's values to dst as int32 cells. The caller has
// checked p.InRange: a value outside it would wrap.
func AppendCells(dst []int32, p Pattern) []int32 {
	for _, v := range p {
		dst = append(dst, int32(v))
	}
	return dst
}
