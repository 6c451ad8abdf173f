"""The paper's primary contribution: CGRA paging, the compile-time paging
constraints, the PageMaster runtime transformation, and the multithreading
runtime built on top of them.
"""
