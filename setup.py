"""Build hooks for the optional compiled kernel extension.

The package is pure Python plus one Cython extension holding the
loop-heavy kernels (CTC forward-backward, CTC prefix scoring, edit
distance counts).  If Cython or a C compiler is missing the build
degrades to pure Python; asrkit.kernels falls back to the numpy
implementations at import time, so nothing else changes.
"""

from setuptools import setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """Swallow extension build failures instead of failing the install."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # noqa: BLE001
            print(f"asrkit: skipping compiled kernels ({exc!r}); "
                  "pure-python fallback will be used")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # noqa: BLE001
            print(f"asrkit: failed to build {ext.name} ({exc!r}); "
                  "pure-python fallback will be used")


def extensions():
    try:
        import numpy
        from Cython.Build import cythonize
    except ImportError:
        return []
    from setuptools import Extension

    ext = Extension(
        "asrkit.kernels._ctc_ext",
        sources=["src/asrkit/kernels/_ctc_ext.pyx"],
        include_dirs=[numpy.get_include()],
        define_macros=[("NPY_NO_DEPRECATED_API", "NPY_1_7_API_VERSION")],
    )
    return cythonize([ext], compiler_directives={
        "language_level": 3,
        "boundscheck": False,
        "wraparound": False,
        "cdivision": True,
    })


setup(ext_modules=extensions(), cmdclass={"build_ext": OptionalBuildExt})
