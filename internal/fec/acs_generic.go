//go:build !amd64

package fec

// acsKernels on architectures without a vector kernel: the portable one.
var acsKernels = []namedKernel{{"go", acsGo}}
